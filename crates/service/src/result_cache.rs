//! The per-binding result LRU.
//!
//! Serving traffic against a prepared query re-binds a handful of hot
//! vertices constantly (the workloads are Zipf-skewed), and a re-bound hot
//! vertex re-derives a result the service just computed. This cache closes
//! that loop: finished [`QueryOutput`]s are kept keyed by the *plan cache
//! key* (which already folds the database tag and statistics token, so
//! mutations and re-registrations orphan stale entries automatically), the
//! output mode, and the binding's value vector, folded FNV-style over its
//! `(attribute, value)` pairs. The fold is 64 bits over caller-chosen
//! values, so two bindings can collide: every entry also stores the
//! [`ResultId`] it was computed for, and a lookup whose identity differs is
//! a miss, never another binding's answer.
//!
//! Entries live in the shared exact-LRU recency index
//! ([`adj_relational::lru`]), so a lookup and an eviction are both O(1).
//! That matters on the batch door: a skewed batch of thousands of bindings
//! keeps the cache full and inserts (and evicts) once per cold binding.

use adj_relational::lru::SharedLru;
use adj_relational::{BoundValues, OutputMode, QueryOutput};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters describing result-cache behaviour since service start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Lookups that found a finished result.
    pub hits: u64,
    /// Lookups that had to execute.
    pub misses: u64,
    /// Results inserted.
    pub insertions: u64,
    /// Results evicted to make room.
    pub evictions: u64,
    /// Results dropped because a panic poisoned the cache's lock.
    pub invalidations: u64,
    /// Current number of cached results.
    pub len: usize,
}

impl ResultCacheStats {
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

/// What a cached result is the answer to: the plan-cache entry, the output
/// mode and the binding.
#[derive(Debug, Clone, Copy)]
pub struct ResultId<'a> {
    /// The plan cache key (query shape, database tag, statistics token).
    pub plan_key: u64,
    /// The output mode the result was shaped for.
    pub mode: OutputMode,
    /// The binding's resolved constants.
    pub binding: &'a BoundValues,
}

#[derive(Debug)]
struct CacheEntry {
    plan_key: u64,
    mode: OutputMode,
    binding: BoundValues,
    output: QueryOutput,
}

impl CacheEntry {
    fn answers(&self, id: &ResultId<'_>) -> bool {
        self.plan_key == id.plan_key && self.mode == id.mode && self.binding == *id.binding
    }
}

/// A thread-safe LRU cache of per-binding query outputs.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    lru: SharedLru<u64, CacheEntry>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` results (0 disables it).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            lru: SharedLru::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit. An entry stored for
    /// a different identity (a key collision) is a miss and keeps its place.
    pub fn get(&self, key: u64, id: &ResultId<'_>) -> Option<QueryOutput> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let output = self.lru.lock().get_if(&key, |e| e.answers(id)).map(|e| e.output.clone());
        let counter = if output.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        output
    }

    /// Inserts `id`'s `output` under `key`, evicting the least-recently-used
    /// entry if the cache is full, and returns whether it evicted one.
    /// Whatever sat under `key` is overwritten: for the same identity the
    /// outputs are equal, and a colliding identity loses its slot to the
    /// more recent one.
    pub fn insert(&self, key: u64, id: &ResultId<'_>, output: QueryOutput) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let entry = CacheEntry {
            plan_key: id.plan_key,
            mode: id.mode,
            binding: id.binding.clone(),
            output,
        };
        // The victim is dropped after the guard, outside the lock.
        let (fresh, evicted) = self.lru.lock().insert_capped(key, entry, self.capacity);
        if fresh {
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
        if evicted.is_some() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        evicted.is_some()
    }

    /// Empties the cache (database re-registration drops results eagerly —
    /// the new epoch would orphan them anyway; this frees the memory now).
    pub fn clear(&self) {
        self.lru.lock().clear();
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
    pub fn stats(&self) -> ResultCacheStats {
        ResultCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            // After `len`, whose lock would do any pending recovery.
            len: self.len(),
            invalidations: self.lru.recovered(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adj_relational::Attr;

    fn binding(v: u32) -> BoundValues {
        BoundValues::new(vec![(Attr(0), v)]).unwrap()
    }

    fn id(binding: &BoundValues) -> ResultId<'_> {
        ResultId { plan_key: 7, mode: OutputMode::Count, binding }
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = ResultCache::new(4);
        let a = binding(1);
        assert!(cache.get(9, &id(&a)).is_none());
        cache.insert(9, &id(&a), QueryOutput::Count(42));
        assert_eq!(cache.get(9, &id(&a)), Some(QueryOutput::Count(42)));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.len), (1, 1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_colliding_key_is_a_miss_that_overwrites() {
        let cache = ResultCache::new(4);
        let (a, b) = (binding(1), binding(2));
        cache.insert(9, &id(&a), QueryOutput::Count(42));
        assert!(cache.get(9, &id(&b)).is_none(), "b must not be served a's answer");
        let other_mode = ResultId { mode: OutputMode::Exists, ..id(&a) };
        assert!(cache.get(9, &other_mode).is_none());
        let other_plan = ResultId { plan_key: 8, ..id(&a) };
        assert!(cache.get(9, &other_plan).is_none());
        cache.insert(9, &id(&b), QueryOutput::Count(5));
        assert_eq!(cache.get(9, &id(&b)), Some(QueryOutput::Count(5)));
        assert!(cache.get(9, &id(&a)).is_none(), "the slot now answers for b only");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ResultCache::new(2);
        let a = binding(1);
        cache.insert(1, &id(&a), QueryOutput::Count(1));
        cache.insert(2, &id(&a), QueryOutput::Count(2));
        assert!(cache.get(1, &id(&a)).is_some()); // refresh 1 → 2 is now LRU
        cache.insert(3, &id(&a), QueryOutput::Count(3));
        assert!(cache.get(2, &id(&a)).is_none(), "2 was least recently used");
        assert!(cache.get(1, &id(&a)).is_some());
        assert!(cache.get(3, &id(&a)).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = ResultCache::new(0);
        let a = binding(1);
        cache.insert(1, &id(&a), QueryOutput::Count(1));
        assert!(cache.get(1, &id(&a)).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn clear_empties() {
        let cache = ResultCache::new(4);
        let a = binding(1);
        cache.insert(1, &id(&a), QueryOutput::Exists(true));
        cache.insert(2, &id(&a), QueryOutput::Exists(false));
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.get(1, &id(&a)).is_none());
    }

    #[test]
    fn a_poisoned_lock_recovers_and_serves_hits() {
        let cache = std::sync::Arc::new(ResultCache::new(4));
        let a = binding(1);
        cache.insert(1, &id(&a), QueryOutput::Count(1));
        cache.insert(2, &id(&a), QueryOutput::Count(2));
        let poisoner = {
            let cache = std::sync::Arc::clone(&cache);
            std::thread::spawn(move || {
                let _guard = cache.lru.lock();
                panic!("a batch died while holding the result cache lock");
            })
        };
        assert!(poisoner.join().is_err(), "the thread must actually panic");
        assert!(cache.get(1, &id(&a)).is_none(), "suspect contents dropped, not served");
        cache.insert(1, &id(&a), QueryOutput::Count(1));
        assert_eq!(cache.get(1, &id(&a)), Some(QueryOutput::Count(1)), "hits are served again");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
        assert_eq!(s.invalidations, 2, "both dropped results are counted");
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = std::sync::Arc::new(ResultCache::new(8));
        let a = binding(1);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (cache, a) = (std::sync::Arc::clone(&cache), &a);
                s.spawn(move || {
                    for i in 0..100u64 {
                        let k = (t * 100 + i) % 12;
                        if cache.get(k, &id(a)).is_none() {
                            cache.insert(k, &id(a), QueryOutput::Count(k));
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
