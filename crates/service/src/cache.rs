//! The LRU plan cache.
//!
//! ADJ's optimization phase is the expensive part of a small query: GHD
//! search, sampling-based cardinality estimation, and the Algorithm 2
//! reverse-order sweep. Under serving traffic the same query shapes recur
//! constantly (the paper's workload is eleven fixed shapes), so the service
//! caches optimized [`QueryPlan`]s keyed by
//! `QueryFingerprint::cache_key(db_tag, stats_epoch)` — see
//! `adj_query::fingerprint` for what the key does and does not canonicalize.
//!
//! Entries live in the shared exact-LRU recency index
//! ([`adj_relational::lru`]): a hit relinks one slot and an eviction pops
//! the least recently used entry, both O(1), so the cache costs the same
//! whether it evicts once a day or on every insert. A panic while the lock
//! is held drops the entries instead of wedging every later `plan_for`.

use adj_core::QueryPlan;
use adj_relational::lru::SharedLru;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters describing cache behaviour since service start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that found a reusable plan.
    pub hits: u64,
    /// Lookups that required a fresh optimization.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries dropped by explicit invalidation (database re-registration)
    /// or by recovery from a poisoned lock.
    pub invalidations: u64,
    /// Current number of cached plans.
    pub len: usize,
}

impl PlanCacheStats {
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

#[derive(Debug)]
struct CacheEntry {
    plan: Arc<QueryPlan>,
    /// Tag of the database the plan was optimized against, for scoped
    /// invalidation.
    db_tag: u64,
}

/// A thread-safe LRU cache of optimized plans.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    lru: SharedLru<u64, CacheEntry>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans (0 disables it).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            lru: SharedLru::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: u64) -> Option<Arc<QueryPlan>> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let plan = self.lru.lock().get(&key).map(|e| Arc::clone(&e.plan));
        let counter = if plan.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        plan
    }

    /// Inserts `plan` (optimized against database `db_tag`) under `key`,
    /// evicting the least-recently-used entry if the cache is full. A
    /// concurrent insert under the same key wins by arrival order; both
    /// plans are equivalent by key construction, so either outcome is
    /// correct.
    pub fn insert(&self, key: u64, db_tag: u64, plan: Arc<QueryPlan>) {
        if self.capacity == 0 {
            return;
        }
        let (fresh, evicted) =
            self.lru.lock().insert_capped(key, CacheEntry { plan, db_tag }, self.capacity);
        if fresh {
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
        if evicted.is_some() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops every cached plan optimized against database `db_tag`. The
    /// tag is folded irreversibly into the cache *key*, so scoped
    /// invalidation filters on the tag stored with each entry. Used when a
    /// database is re-registered with new contents: other databases' plans
    /// survive, and the stale ones would die naturally anyway (the new
    /// epoch changes every future key) — dropping them eagerly just frees
    /// capacity.
    pub fn invalidate_db(&self, db_tag: u64) {
        let dropped = self.lru.lock().retain(|_, e| e.db_tag != db_tag);
        self.invalidations.fetch_add(dropped as u64, Ordering::Relaxed);
    }

    /// Empties the cache.
    pub fn clear(&self) {
        let dropped = self.lru.lock().clear();
        self.invalidations.fetch_add(dropped as u64, Ordering::Relaxed);
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.lru.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A consistent snapshot of the counters.
    pub fn stats(&self) -> PlanCacheStats {
        let len = self.len();
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed) + self.lru.recovered(),
            len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adj_core::{Adj, Strategy};
    use adj_query::{paper_query, PaperQuery};
    use adj_relational::{Attr, Relation};

    fn some_plan(q: PaperQuery) -> Arc<QueryPlan> {
        let query = paper_query(q);
        let g = Relation::from_pairs(Attr(0), Attr(1), &[(0, 1), (1, 2), (0, 2)]);
        let db = query.instantiate(&g);
        let adj = Adj::with_workers(1);
        Arc::new(adj.plan(&query, &db, Strategy::CoOptimize).unwrap())
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = PlanCache::new(4);
        assert!(cache.get(7).is_none());
        cache.insert(7, 0, some_plan(PaperQuery::Q1));
        assert!(cache.get(7).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.len), (1, 1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = PlanCache::new(2);
        let p = some_plan(PaperQuery::Q1);
        cache.insert(1, 0, Arc::clone(&p));
        cache.insert(2, 0, Arc::clone(&p));
        assert!(cache.get(1).is_some()); // refresh 1 → 2 is now LRU
        cache.insert(3, 0, Arc::clone(&p));
        assert!(cache.get(2).is_none(), "2 was least recently used");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = PlanCache::new(0);
        cache.insert(1, 0, some_plan(PaperQuery::Q1));
        assert!(cache.get(1).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn invalidate_is_scoped_to_one_database() {
        let cache = PlanCache::new(4);
        cache.insert(1, 100, some_plan(PaperQuery::Q1));
        cache.insert(2, 100, some_plan(PaperQuery::Q1));
        cache.insert(3, 200, some_plan(PaperQuery::Q1)); // other database
        cache.invalidate_db(100);
        assert_eq!(cache.len(), 1, "only db 100's plans drop");
        assert!(cache.get(3).is_some(), "db 200's plan survives");
        assert_eq!(cache.stats().invalidations, 2);
        // a tag nothing was inserted under drops nothing
        cache.invalidate_db(999);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_poisoned_lock_recovers_and_serves_hits() {
        // `plan_for` runs outside `serve`'s panic isolation: a panic under
        // this lock used to make every later query on every database panic
        // on `.expect("plan cache poisoned")`.
        let cache = Arc::new(PlanCache::new(4));
        let plan = some_plan(PaperQuery::Q1);
        cache.insert(1, 0, Arc::clone(&plan));
        let poisoner = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let _guard = cache.lru.lock();
                panic!("a query died while holding the plan cache lock");
            })
        };
        assert!(poisoner.join().is_err(), "the thread must actually panic");
        assert!(cache.lru.is_poisoned());
        assert!(cache.get(1).is_none(), "suspect contents dropped, not served");
        assert!(!cache.lru.is_poisoned(), "poison cleared on first recovery");
        cache.insert(1, 0, Arc::clone(&plan));
        assert!(cache.get(1).is_some(), "the cache serves hits again");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
        assert_eq!(s.invalidations, 1, "the dropped entry counts as an invalidation");
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(PlanCache::new(8));
        let plan = some_plan(PaperQuery::Q1);
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = Arc::clone(&cache);
                let plan = Arc::clone(&plan);
                s.spawn(move || {
                    for i in 0..100u64 {
                        let k = (t * 100 + i) % 12;
                        if cache.get(k).is_none() {
                            cache.insert(k, t, Arc::clone(&plan));
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 400);
        assert!(cache.len() <= 8);
    }
}
