//! The cross-query index cache: shuffled partitions and built tries as
//! first-class, reusable artifacts.
//!
//! Under serving traffic the database is immutable between queries, yet
//! every execution re-runs the HCube shuffle and rebuilds the same
//! level-wise tries — on a warm plan cache that communication phase dwarfs
//! the join itself. The paper's Merge-HCube pre-builds sorted blocks so
//! tries assemble by merge instead of sort (Sec. V); this cache takes the
//! idea to its fixed point: once a relation has been shuffled and indexed
//! for a given `(induced attribute order, share vector, worker count)`
//! against a given database state, the per-worker [`Trie`]s are published
//! as shared `Arc` handles and every later query with the same key joins
//! over them directly — no routing, no sorting, no build.
//!
//! Two artifact kinds share one LRU byte budget:
//!
//! * **relation indexes** ([`RelationIndex`]) — the per-worker tries of one
//!   shuffled relation, keyed by [`IndexKey`];
//! * **bag relations** — materialized hypertree-bag joins (ADJ's
//!   pre-computing phase, and GHD-Yannakakis bags), keyed by [`BagKey`].
//!   Bag contents are a pure function of the base relations, the member
//!   atoms, and the attribute order, so a stable label string identifies
//!   them across queries.
//!
//! Keys fold in a database tag and its statistics epoch: re-registering a
//! database bumps the epoch, so stale entries stop matching (and
//! [`IndexCache::invalidate_db`] drops them eagerly). Eviction is
//! least-recently-used over *bytes*, not entries, because the whole point
//! of the budget is to charge index memory against the cluster's
//! `memory_limit_bytes`.

use adj_faults::CancelToken;
use adj_relational::hash::FxHashMap;
use adj_relational::{Attr, Relation, Trie};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Identity of one cached relation index: the relation (or bag label), the
/// induced attribute order its trie levels follow, the hypercube share
/// vector and worker count that routed it, and the database state it was
/// built against. No part of a query's binding enters the key — the shuffle
/// never filters by bound constants — so every binding of a prepared
/// statement, a batch of them and the unbound query of the same shape all
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
    /// The share vector `p` of the shuffle that partitioned it.
    pub share: Vec<u32>,
    /// Worker count (the share vector alone does not fix the cube→worker
    /// assignment).
    pub num_workers: usize,
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

/// One shuffled relation's reusable artifacts: per-worker tries plus the
/// communication cost the original shuffle paid (so reports can state what
/// a hit saved).
#[derive(Debug)]
pub struct RelationIndex {
    /// `tries[w]` is worker `w`'s local fragment, indexed in the key's
    /// induced order.
    pub tries: Vec<Arc<Trie>>,
    /// Delivered tuple copies the original shuffle moved for this relation.
    pub tuples: u64,
    /// Transfer units the original shuffle paid for this relation.
    pub messages: u64,
    /// Resident bytes across all workers' tries.
    pub bytes: usize,
}

impl RelationIndex {
    /// Builds the entry, computing its resident size.
    pub fn new(tries: Vec<Arc<Trie>>, tuples: u64, messages: u64) -> Self {
        let bytes = tries.iter().map(|t| t.size_bytes()).sum();
        RelationIndex { tries, tuples, messages, bytes }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum EntryKey {
    Index(IndexKey),
    Bag(BagKey),
}

impl EntryKey {
    fn db_tag(&self) -> u64 {
        match self {
            EntryKey::Index(k) => k.db_tag,
            EntryKey::Bag(k) => k.db_tag,
        }
    }
}

#[derive(Debug, Clone)]
enum Artifact {
    Index(Arc<RelationIndex>),
    Bag(Arc<Relation>),
}

#[derive(Debug)]
struct Entry {
    artifact: Artifact,
    bytes: usize,
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheMap {
    map: FxHashMap<EntryKey, Entry>,
    tick: u64,
    resident_bytes: usize,
}

impl CacheMap {
    /// Evicts least-recently-used entries until `need` more bytes fit under
    /// `capacity`. Returns the number of entries evicted.
    fn make_room(&mut self, need: usize, capacity: usize) -> u64 {
        let mut evicted = 0u64;
        while self.resident_bytes + need > capacity && !self.map.is_empty() {
            let lru = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty map");
            if let Some(e) = self.map.remove(&lru) {
                self.resident_bytes -= e.bytes;
                evicted += 1;
            }
        }
        evicted
    }

    fn insert(&mut self, key: EntryKey, artifact: Artifact, bytes: usize) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let fresh = self
            .map
            .insert(key, Entry { artifact, bytes, last_used: tick })
            .map(|old| {
                self.resident_bytes -= old.bytes;
                false
            })
            .unwrap_or(true);
        self.resident_bytes += bytes;
        fresh
    }

    fn get(&mut self, key: &EntryKey) -> Option<Artifact> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|e| {
            e.last_used = tick;
            e.artifact.clone()
        })
    }
}

/// One in-flight build registration: concurrent misses on the same key
/// wait here until the builder publishes (or abandons) its claim.
#[derive(Debug, Default)]
struct PendingBuild {
    done: Mutex<bool>,
    cv: Condvar,
}

/// How often a coalesced waiter re-polls its [`CancelToken`] while blocked
/// on another query's in-flight build. Builds are milliseconds-scale, so a
/// short poll keeps deadline latency tight without busy-waiting.
const PENDING_POLL: Duration = Duration::from_millis(1);

/// Outcome of a coalescing lookup ([`IndexCache::get_index_or_claim`] /
/// [`IndexCache::get_bag_or_claim`]).
#[derive(Debug)]
pub enum CacheLookup<'a, T> {
    /// A reusable artifact. `coalesced` is true when this lookup blocked on
    /// a concurrent in-flight build and reused its result instead of
    /// running a redundant build of its own.
    Hit {
        /// The cached artifact.
        value: T,
        /// Whether the artifact came from a build this lookup waited for.
        coalesced: bool,
    },
    /// Nothing cached. When `Some`, the claim registers this caller as the
    /// key's one in-flight builder: concurrent misses on the same key block
    /// until the claim publishes or drops. `None` means coalescing is
    /// unavailable for this miss (the cache is disabled, the wait was
    /// interrupted by cancellation, or the caller already claimed an equal
    /// key) — build without any publishing obligation.
    Miss(Option<BuildClaim<'a>>),
}

/// Exclusive permission to build one cache entry, handed out by
/// [`IndexCache::get_index_or_claim`] / [`IndexCache::get_bag_or_claim`] on
/// a cold miss. Publish the built artifact through
/// [`BuildClaim::publish_index`] / [`BuildClaim::publish_bag`]; dropping an
/// unpublished claim (error, cancellation, panic unwind) *abandons* the
/// build — waiters wake, re-check the cache, and the first one through
/// becomes the new builder, so an aborted query never strands the key.
///
/// Deadlock discipline for holders: a query may hold several *index* claims
/// at once only when it acquired them in sorted key order, and may wait on
/// an index claim while holding a *bag* claim — but never the reverse
/// (nothing waits on a bag while holding an index claim), and at most one
/// bag claim is held at a time. The shuffle and the executor's bag loop
/// both follow this; see `hcube_shuffle_round`.
#[derive(Debug)]
pub struct BuildClaim<'a> {
    cache: &'a IndexCache,
    key: Option<EntryKey>,
}

impl BuildClaim<'_> {
    /// Publishes a built relation index under the claimed key and releases
    /// every coalesced waiter. No-op if the claim was for a bag key.
    pub fn publish_index(mut self, index: Arc<RelationIndex>) {
        let Some(key) = self.key.take() else { return };
        debug_assert!(matches!(key, EntryKey::Index(_)), "claim kind mismatch");
        let bytes = index.bytes;
        self.cache.insert_entry(key.clone(), Artifact::Index(index), bytes);
        self.cache.finish_pending(&key);
    }

    /// Publishes a materialized bag relation under the claimed key and
    /// releases every coalesced waiter. No-op if the claim was for an
    /// index key.
    pub fn publish_bag(mut self, rel: Arc<Relation>) {
        let Some(key) = self.key.take() else { return };
        debug_assert!(matches!(key, EntryKey::Bag(_)), "claim kind mismatch");
        let bytes = rel.size_bytes();
        self.cache.insert_entry(key.clone(), Artifact::Bag(rel), bytes);
        self.cache.finish_pending(&key);
    }
}

impl Drop for BuildClaim<'_> {
    fn drop(&mut self) {
        // Not published: abandon. Waiters wake, find the cache still cold,
        // and race to claim the key themselves.
        if let Some(key) = self.key.take() {
            self.cache.finish_pending(&key);
        }
    }
}

/// Counters describing index-cache behaviour since service start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexCacheStats {
    /// Lookups that found a reusable artifact.
    pub hits: u64,
    /// Lookups that required a fresh shuffle/build.
    pub misses: u64,
    /// Artifacts published.
    pub insertions: u64,
    /// Artifacts evicted to make room.
    pub evictions: u64,
    /// Artifacts dropped by explicit invalidation (database mutation).
    pub invalidations: u64,
    /// Tuple copies whose shuffle was skipped thanks to hits.
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

/// A thread-safe, byte-budgeted LRU cache of shuffled relation indexes and
/// materialized bag relations.
#[derive(Debug)]
pub struct IndexCache {
    capacity_bytes: usize,
    inner: Mutex<CacheMap>,
    /// In-flight builds, for request coalescing: a key is present exactly
    /// while one claimant is building it. Guarded separately from `inner`
    /// so waiters never block cache traffic.
    pending: Mutex<FxHashMap<EntryKey, Arc<PendingBuild>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    tuples_saved: AtomicU64,
    coalesced: AtomicU64,
}

impl IndexCache {
    /// Creates a cache holding at most `capacity_bytes` of artifacts
    /// (0 disables it: every lookup misses, every insert is dropped).
    pub fn new(capacity_bytes: usize) -> Self {
        IndexCache {
            capacity_bytes,
            inner: Mutex::new(CacheMap::default()),
            pending: Mutex::new(FxHashMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            tuples_saved: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// The byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Locks the map, *recovering* from lock poisoning instead of
    /// propagating it. The cache is pure derived state — every entry can be
    /// rebuilt from the database — so if a panic ever lands while the lock
    /// is held (leaving the map possibly half-updated), the correct
    /// response is to drop the whole map and carry on cold, not to wedge
    /// every later query on the same `.expect("poisoned")`. The dropped
    /// entries are counted as invalidations.
    fn lock_recovering(&self) -> std::sync::MutexGuard<'_, CacheMap> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                let dropped = guard.map.len() as u64;
                guard.map.clear();
                guard.resident_bytes = 0;
                self.invalidations.fetch_add(dropped, Ordering::Relaxed);
                self.inner.clear_poison();
                guard
            }
        }
    }

    /// Looks up a relation index, refreshing its recency on a hit and
    /// crediting the shuffle volume the hit saved.
    pub fn get_index(&self, key: &IndexKey) -> Option<Arc<RelationIndex>> {
        if self.capacity_bytes == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let got = self.lock_recovering().get(&EntryKey::Index(key.clone()));
        match got {
            Some(Artifact::Index(idx)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.tuples_saved.fetch_add(idx.tuples, Ordering::Relaxed);
                Some(idx)
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Publishes a relation index. Entries larger than the whole budget are
    /// dropped; otherwise LRU entries are evicted until it fits. A
    /// concurrent insert under the same key wins by arrival order — both
    /// artifacts are equivalent by key construction.
    pub fn insert_index(&self, key: IndexKey, index: Arc<RelationIndex>) {
        let bytes = index.bytes;
        self.insert_entry(EntryKey::Index(key), Artifact::Index(index), bytes);
    }

    /// Looks up a materialized bag relation.
    pub fn get_bag(&self, key: &BagKey) -> Option<Arc<Relation>> {
        if self.capacity_bytes == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let got = self.lock_recovering().get(&EntryKey::Bag(key.clone()));
        match got {
            Some(Artifact::Bag(rel)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(rel)
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Publishes a materialized bag relation.
    pub fn insert_bag(&self, key: BagKey, rel: Arc<Relation>) {
        let bytes = rel.size_bytes();
        self.insert_entry(EntryKey::Bag(key), Artifact::Bag(rel), bytes);
    }

    /// Coalescing relation-index lookup: a hit behaves like
    /// [`IndexCache::get_index`]; a *cold* miss hands back a [`BuildClaim`]
    /// registering this caller as the key's one in-flight builder, and a
    /// miss that finds a build already in flight blocks (polling `cancel`)
    /// until that build publishes, then returns its artifact as a
    /// `coalesced` hit. See [`BuildClaim`] for the holder's deadlock
    /// discipline.
    pub fn get_index_or_claim(
        &self,
        key: &IndexKey,
        cancel: &CancelToken,
    ) -> CacheLookup<'_, Arc<RelationIndex>> {
        match self.lookup_or_claim(EntryKey::Index(key.clone()), cancel) {
            CacheLookup::Hit { value: Artifact::Index(idx), coalesced } => {
                CacheLookup::Hit { value: idx, coalesced }
            }
            // EntryKey carries the artifact kind, so an Index key can never
            // resolve to a Bag artifact.
            CacheLookup::Hit { .. } => unreachable!("index key resolved to a bag artifact"),
            CacheLookup::Miss(claim) => CacheLookup::Miss(claim),
        }
    }

    /// Coalescing bag lookup; see [`IndexCache::get_index_or_claim`].
    pub fn get_bag_or_claim(
        &self,
        key: &BagKey,
        cancel: &CancelToken,
    ) -> CacheLookup<'_, Arc<Relation>> {
        match self.lookup_or_claim(EntryKey::Bag(key.clone()), cancel) {
            CacheLookup::Hit { value: Artifact::Bag(rel), coalesced } => {
                CacheLookup::Hit { value: rel, coalesced }
            }
            CacheLookup::Hit { .. } => unreachable!("bag key resolved to an index artifact"),
            CacheLookup::Miss(claim) => CacheLookup::Miss(claim),
        }
    }

    fn lock_pending(&self) -> MutexGuard<'_, FxHashMap<EntryKey, Arc<PendingBuild>>> {
        // The registry holds only liveness slots — every claimant removes
        // its own slot via `finish_pending` (publish or Drop), so after a
        // panic the map is still structurally sound; just take it back.
        self.pending.lock().unwrap_or_else(|poisoned| {
            self.pending.clear_poison();
            poisoned.into_inner()
        })
    }

    /// Marks `key`'s in-flight build finished (published or abandoned) and
    /// wakes every coalesced waiter.
    fn finish_pending(&self, key: &EntryKey) {
        let slot = self.lock_pending().remove(key);
        if let Some(slot) = slot {
            let mut done = slot.done.lock().unwrap_or_else(|poisoned| {
                slot.done.clear_poison();
                poisoned.into_inner()
            });
            *done = true;
            slot.cv.notify_all();
        }
    }

    fn lookup_or_claim(&self, key: EntryKey, cancel: &CancelToken) -> CacheLookup<'_, Artifact> {
        if self.capacity_bytes == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return CacheLookup::Miss(None);
        }
        let mut waited = false;
        loop {
            if let Some(artifact) = self.lock_recovering().get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if let Artifact::Index(idx) = &artifact {
                    self.tuples_saved.fetch_add(idx.tuples, Ordering::Relaxed);
                }
                if waited {
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                }
                return CacheLookup::Hit { value: artifact, coalesced: waited };
            }
            let slot = {
                let mut pending = self.lock_pending();
                match pending.get(&key) {
                    Some(slot) => Arc::clone(slot),
                    None => {
                        pending.insert(key.clone(), Arc::new(PendingBuild::default()));
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        return CacheLookup::Miss(Some(BuildClaim { cache: self, key: Some(key) }));
                    }
                }
            };
            // Another query is building this key right now: wait for it,
            // polling the token so a deadline fires promptly. On
            // cancellation, give up coalescing rather than block past the
            // deadline — the caller's next cancellation checkpoint raises
            // the error before any redundant build gets far.
            waited = true;
            let mut done = slot.done.lock().unwrap_or_else(|poisoned| {
                slot.done.clear_poison();
                poisoned.into_inner()
            });
            while !*done {
                if cancel.check().is_err() {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return CacheLookup::Miss(None);
                }
                let (guard, _timeout) =
                    slot.cv.wait_timeout(done, PENDING_POLL).unwrap_or_else(|poisoned| {
                        slot.done.clear_poison();
                        poisoned.into_inner()
                    });
                done = guard;
            }
            // The build finished: published (the retry hits), abandoned or
            // already evicted (the retry claims and this caller builds).
        }
    }

    fn insert_entry(&self, key: EntryKey, artifact: Artifact, bytes: usize) {
        if self.capacity_bytes == 0 || bytes > self.capacity_bytes {
            return;
        }
        let mut inner = self.lock_recovering();
        let evicted = inner.make_room(bytes, self.capacity_bytes);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        if inner.insert(key, artifact, bytes) {
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops every artifact built against database `db_tag` — the
    /// invalidation hook for database mutation (the epoch in every key
    /// already stops stale entries from matching; this frees their bytes
    /// eagerly).
    pub fn invalidate_db(&self, db_tag: u64) {
        let mut inner = self.lock_recovering();
        let before = inner.map.len();
        let mut freed = 0usize;
        inner.map.retain(|k, e| {
            let keep = k.db_tag() != db_tag;
            if !keep {
                freed += e.bytes;
            }
            keep
        });
        let dropped = (before - inner.map.len()) as u64;
        inner.resident_bytes -= freed;
        self.invalidations.fetch_add(dropped, Ordering::Relaxed);
    }

    /// Removes and returns every relation-index entry for `relation` in
    /// database `db_tag`, regardless of epoch or delta sequence — the
    /// harvest step of warm-cache patching: the caller re-routes the delta
    /// tuples into each taken entry and republishes it under the new
    /// sequence. Taken entries count as invalidations (republication counts
    /// as insertion), so the net cache churn stays visible in the stats.
    /// Bag artifacts are left alone: their labels fold the relation
    /// versions, so stale bags simply stop matching and age out via LRU.
    pub fn take_indexes_for(
        &self,
        db_tag: u64,
        relation: &str,
    ) -> Vec<(IndexKey, Arc<RelationIndex>)> {
        let mut inner = self.lock_recovering();
        let mut taken = Vec::new();
        let mut freed = 0usize;
        inner.map.retain(|k, e| match (k, &e.artifact) {
            (EntryKey::Index(ik), Artifact::Index(idx))
                if ik.db_tag == db_tag && ik.relation == relation =>
            {
                freed += e.bytes;
                taken.push((ik.clone(), Arc::clone(idx)));
                false
            }
            _ => true,
        });
        inner.resident_bytes -= freed;
        self.invalidations.fetch_add(taken.len() as u64, Ordering::Relaxed);
        taken
    }

    /// Empties the cache.
    pub fn clear(&self) {
        let mut inner = self.lock_recovering();
        let dropped = inner.map.len() as u64;
        inner.map.clear();
        inner.resident_bytes = 0;
        self.invalidations.fetch_add(dropped, Ordering::Relaxed);
    }

    /// Current resident bytes.
    pub fn resident_bytes(&self) -> usize {
        self.lock_recovering().resident_bytes
    }

    /// Current artifact count.
    pub fn len(&self) -> usize {
        self.lock_recovering().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A consistent snapshot of the counters.
    pub fn stats(&self) -> IndexCacheStats {
        let (resident_bytes, len) = {
            let inner = self.lock_recovering();
            (inner.resident_bytes, inner.map.len())
        };
        IndexCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            tuples_saved: self.tuples_saved.load(Ordering::Relaxed),
            coalesced_builds: self.coalesced.load(Ordering::Relaxed),
            resident_bytes,
            capacity_bytes: self.capacity_bytes,
            len,
        }
    }
}

/// The scope a cache is consulted under: which cache, and which database
/// state keys its entries. Threaded from the service front door down
/// through the executor into the shuffle.
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
    pub fn index_key(
        &self,
        relation: impl Into<String>,
        induced: Vec<Attr>,
        share: &[u32],
        num_workers: usize,
    ) -> IndexKey {
        let relation = relation.into();
        let delta_seq = self.delta_seq_for(&relation);
        IndexKey {
            db_tag: self.db_tag,
            epoch: self.epoch,
            relation,
            induced,
            share: share.to_vec(),
            num_workers,
            delta_seq,
        }
    }

    /// Builds a [`BagKey`] in this scope.
    pub fn bag_key(&self, label: impl Into<String>) -> BagKey {
        BagKey { db_tag: self.db_tag, epoch: self.epoch, label: label.into() }
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
            share: vec![2, 2],
            num_workers: 4,
            delta_seq: 0,
        }
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = IndexCache::new(1 << 20);
        let k = key(1, 0, "R1");
        assert!(cache.get_index(&k).is_none());
        let idx = Arc::new(RelationIndex::new(vec![trie(10)], 10, 1));
        cache.insert_index(k.clone(), idx);
        let hit = cache.get_index(&k).expect("hit");
        assert_eq!(hit.tuples, 10);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!(s.tuples_saved, 10);
        assert!(s.resident_bytes > 0);
    }

    #[test]
    fn epoch_and_share_split_keys() {
        let cache = IndexCache::new(1 << 20);
        let k = key(1, 0, "R1");
        cache.insert_index(k.clone(), Arc::new(RelationIndex::new(vec![trie(5)], 5, 1)));
        let mut stale = k.clone();
        stale.epoch = 1;
        assert!(cache.get_index(&stale).is_none(), "epoch bump must stop matching");
        let mut other_share = k.clone();
        other_share.share = vec![4, 1];
        assert!(cache.get_index(&other_share).is_none());
        let mut other_workers = k.clone();
        other_workers.num_workers = 8;
        assert!(cache.get_index(&other_workers).is_none());
        let mut other_seq = k;
        other_seq.delta_seq = 3;
        assert!(
            cache.get_index(&other_seq).is_none(),
            "a mutated relation's entries must stop matching"
        );
    }

    #[test]
    fn take_indexes_for_harvests_one_relation() {
        let cache = IndexCache::new(1 << 20);
        cache.insert_index(key(1, 0, "R1"), Arc::new(RelationIndex::new(vec![trie(5)], 5, 1)));
        let mut seq1 = key(1, 0, "R1");
        seq1.delta_seq = 1;
        cache.insert_index(seq1, Arc::new(RelationIndex::new(vec![trie(6)], 6, 1)));
        cache.insert_index(key(1, 0, "R2"), Arc::new(RelationIndex::new(vec![trie(7)], 7, 1)));
        cache.insert_index(key(2, 0, "R1"), Arc::new(RelationIndex::new(vec![trie(8)], 8, 1)));
        let taken = cache.take_indexes_for(1, "R1");
        assert_eq!(taken.len(), 2, "both sequences of db 1's R1 come out");
        assert_eq!(cache.len(), 2, "other relation and other db stay");
        assert!(cache.get_index(&key(1, 0, "R2")).is_some());
        assert!(cache.get_index(&key(2, 0, "R1")).is_some());
        assert_eq!(cache.stats().invalidations, 2);
        let resident = cache.resident_bytes();
        assert!(resident > 0, "freed bytes must be subtracted, not leaked");
    }

    #[test]
    fn scope_versions_stamp_keys_and_digests() {
        let cache = IndexCache::new(1 << 20);
        let versions = vec![("R1".to_string(), 4u64)];
        let scope = IndexScope { cache: &cache, db_tag: 7, epoch: 3, versions: &versions };
        assert_eq!(scope.delta_seq_for("R1"), 4);
        assert_eq!(scope.delta_seq_for("R2"), 0, "unmutated relations sit at 0");
        let k = scope.index_key("R1", vec![Attr(0)], &[2], 4);
        assert_eq!(k.delta_seq, 4);
        assert_eq!(scope.index_key("R2", vec![Attr(0)], &[2], 4).delta_seq, 0);
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

    #[test]
    fn poisoned_lock_recovers_by_clearing_not_wedging() {
        // Regression: a panicking query used to poison the cache mutex and
        // every later query then panicked on `.expect("poisoned")` —
        // permanently wedging the service. Recovery drops the (suspect)
        // contents and keeps serving cold.
        let cache = Arc::new(IndexCache::new(1 << 20));
        cache.insert_index(key(1, 0, "R1"), Arc::new(RelationIndex::new(vec![trie(5)], 5, 1)));
        assert_eq!(cache.len(), 1);
        let poisoner = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let _guard = cache.inner.lock().unwrap();
                panic!("query died while holding the cache lock");
            })
        };
        assert!(poisoner.join().is_err(), "the thread must actually panic");
        assert!(cache.inner.is_poisoned());
        // No panic on any operation; the cache restarts empty and works.
        assert!(cache.get_index(&key(1, 0, "R1")).is_none(), "suspect contents dropped");
        assert!(!cache.inner.is_poisoned(), "poison cleared on first recovery");
        assert_eq!(cache.len(), 0);
        cache.insert_index(key(1, 0, "R2"), Arc::new(RelationIndex::new(vec![trie(5)], 5, 1)));
        assert!(cache.get_index(&key(1, 0, "R2")).is_some(), "cache keeps serving after recovery");
        assert_eq!(cache.stats().invalidations, 1, "dropped entries count as invalidations");
    }

    #[test]
    fn lru_eviction_respects_byte_budget() {
        let t = trie(50);
        let bytes = RelationIndex::new(vec![t.clone()], 0, 0).bytes;
        // Room for exactly two entries.
        let cache = IndexCache::new(bytes * 2 + 1);
        for (i, name) in ["a", "b"].iter().enumerate() {
            cache.insert_index(
                key(1, 0, name),
                Arc::new(RelationIndex::new(vec![t.clone()], i as u64, 0)),
            );
        }
        assert!(cache.get_index(&key(1, 0, "a")).is_some()); // refresh a → b is LRU
        cache.insert_index(key(1, 0, "c"), Arc::new(RelationIndex::new(vec![t.clone()], 2, 0)));
        assert!(cache.get_index(&key(1, 0, "b")).is_none(), "b was least recently used");
        assert!(cache.get_index(&key(1, 0, "a")).is_some());
        assert!(cache.get_index(&key(1, 0, "c")).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.resident_bytes <= s.capacity_bytes);
    }

    #[test]
    fn oversized_entry_is_not_cached() {
        let cache = IndexCache::new(8);
        cache.insert_index(key(1, 0, "big"), Arc::new(RelationIndex::new(vec![trie(100)], 0, 0)));
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = IndexCache::new(0);
        let k = key(1, 0, "R1");
        cache.insert_index(k.clone(), Arc::new(RelationIndex::new(vec![trie(5)], 5, 1)));
        assert!(cache.get_index(&k).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn bags_share_the_budget_and_roundtrip() {
        let cache = IndexCache::new(1 << 20);
        let rel = Relation::from_pairs(Attr(0), Attr(1), &[(1, 2), (3, 4)]);
        let scope = IndexScope { cache: &cache, db_tag: 7, epoch: 3, versions: &[] };
        let bk = scope.bag_key("adj:R4,R5@[1,2,4]");
        assert!(cache.get_bag(&bk).is_none());
        cache.insert_bag(bk.clone(), Arc::new(rel.clone()));
        assert_eq!(*cache.get_bag(&bk).unwrap(), rel);
        assert!(cache.resident_bytes() >= rel.size_bytes());
        // different epoch: distinct bag
        let stale = BagKey { epoch: 4, ..bk };
        assert!(cache.get_bag(&stale).is_none());
    }

    #[test]
    fn invalidate_is_scoped_to_one_database() {
        let cache = IndexCache::new(1 << 20);
        cache.insert_index(key(100, 0, "R1"), Arc::new(RelationIndex::new(vec![trie(5)], 5, 1)));
        cache.insert_bag(
            BagKey { db_tag: 100, epoch: 0, label: "adj:x".into() },
            Arc::new(Relation::from_pairs(Attr(0), Attr(1), &[(1, 2)])),
        );
        cache.insert_index(key(200, 0, "R1"), Arc::new(RelationIndex::new(vec![trie(5)], 5, 1)));
        cache.invalidate_db(100);
        assert_eq!(cache.len(), 1, "only db 100's artifacts drop");
        assert!(cache.get_index(&key(200, 0, "R1")).is_some());
        assert_eq!(cache.stats().invalidations, 2);
        let expected: usize = cache.stats().resident_bytes;
        assert!(expected > 0);
    }

    #[test]
    fn coalesced_miss_waits_for_one_build() {
        // N threads race a cold key: exactly one gets a claim and builds;
        // the rest block on it and come back as coalesced hits.
        const THREADS: usize = 8;
        let cache = Arc::new(IndexCache::new(1 << 20));
        let k = key(1, 0, "R1");
        let built = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let cache = Arc::clone(&cache);
                let built = Arc::clone(&built);
                let k = k.clone();
                s.spawn(move || match cache.get_index_or_claim(&k, &CancelToken::none()) {
                    CacheLookup::Miss(Some(claim)) => {
                        built.fetch_add(1, Ordering::Relaxed);
                        // Simulate a build long enough for every other
                        // thread to arrive and block.
                        std::thread::sleep(Duration::from_millis(20));
                        claim.publish_index(Arc::new(RelationIndex::new(vec![trie(10)], 10, 1)));
                    }
                    CacheLookup::Miss(None) => panic!("coalescing must engage"),
                    CacheLookup::Hit { .. } => {}
                });
            }
        });
        assert_eq!(built.load(Ordering::Relaxed), 1, "exactly one thread builds");
        let s = cache.stats();
        assert_eq!(s.insertions, 1);
        assert_eq!(s.misses, 1, "waiters resolve as hits, not misses");
        assert_eq!(s.hits, (THREADS - 1) as u64);
        assert_eq!(s.coalesced_builds, (THREADS - 1) as u64);
    }

    #[test]
    fn abandoned_claim_wakes_waiters_who_reclaim() {
        let cache = Arc::new(IndexCache::new(1 << 20));
        let k = key(1, 0, "R1");
        let claim = match cache.get_index_or_claim(&k, &CancelToken::none()) {
            CacheLookup::Miss(Some(c)) => c,
            _ => panic!("cold key must hand out a claim"),
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            let k = k.clone();
            std::thread::spawn(move || {
                match cache.get_index_or_claim(&k, &CancelToken::none()) {
                    CacheLookup::Miss(Some(claim)) => {
                        // The waiter inherits the build; publishing serves
                        // later lookups normally.
                        claim.publish_index(Arc::new(RelationIndex::new(vec![trie(4)], 4, 1)));
                        true
                    }
                    _ => false,
                }
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        drop(claim); // build failed — abandon without publishing
        assert!(
            waiter.join().expect("waiter must not hang"),
            "waiter should reclaim the abandoned key"
        );
        assert!(cache.get_index(&k).is_some());
        assert_eq!(cache.stats().coalesced_builds, 0, "an abandoned wait is not a coalesced hit");
    }

    #[test]
    fn cancelled_waiter_stops_blocking() {
        let cache = Arc::new(IndexCache::new(1 << 20));
        let k = key(1, 0, "R1");
        let _claim = match cache.get_index_or_claim(&k, &CancelToken::none()) {
            CacheLookup::Miss(Some(c)) => c,
            _ => panic!("cold key must hand out a claim"),
        };
        let cancel = CancelToken::manual();
        cancel.cancel();
        // The build never finishes, but the cancelled waiter returns
        // promptly with a claimless miss instead of hanging.
        match cache.get_index_or_claim(&k, &cancel) {
            CacheLookup::Miss(None) => {}
            other => panic!("cancelled wait must give up coalescing, got {other:?}"),
        };
    }

    #[test]
    fn zero_capacity_never_claims() {
        let cache = IndexCache::new(0);
        match cache.get_index_or_claim(&key(1, 0, "R1"), &CancelToken::none()) {
            CacheLookup::Miss(None) => {}
            other => panic!("disabled cache must not coalesce, got {other:?}"),
        };
    }

    #[test]
    fn bag_claims_roundtrip() {
        let cache = IndexCache::new(1 << 20);
        let scope = IndexScope { cache: &cache, db_tag: 7, epoch: 3, versions: &[] };
        let bk = scope.bag_key("adj:R4,R5@[1,2,4]");
        let rel = Arc::new(Relation::from_pairs(Attr(0), Attr(1), &[(1, 2)]));
        match cache.get_bag_or_claim(&bk, &CancelToken::none()) {
            CacheLookup::Miss(Some(claim)) => claim.publish_bag(Arc::clone(&rel)),
            other => panic!("cold bag must hand out a claim, got {other:?}"),
        }
        match cache.get_bag_or_claim(&bk, &CancelToken::none()) {
            CacheLookup::Hit { value, coalesced } => {
                assert_eq!(*value, *rel);
                assert!(!coalesced, "an uncontended hit is not coalesced");
            }
            other => panic!("published bag must hit, got {other:?}"),
        };
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(IndexCache::new(1 << 20));
        let idx = Arc::new(RelationIndex::new(vec![trie(10)], 10, 1));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = Arc::clone(&cache);
                let idx = Arc::clone(&idx);
                s.spawn(move || {
                    for i in 0..100u64 {
                        let k = key(t, 0, &format!("R{}", (t * 100 + i) % 12));
                        if cache.get_index(&k).is_none() {
                            cache.insert_index(k, Arc::clone(&idx));
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 400);
        assert!(s.resident_bytes <= s.capacity_bytes);
    }
}
