//! The per-binding result LRU's entries and their collision check.
//!
//! Serving traffic against a prepared query re-binds a handful of hot
//! vertices constantly (the workloads are Zipf-skewed), and a re-bound hot
//! vertex re-derives a result the service just computed. The batch door
//! closes that loop: finished [`QueryOutput`]s are kept in a
//! [`Cache`] keyed by the *plan cache key*
//! (which already folds the database tag and statistics token, so
//! mutations and re-registrations orphan stale entries automatically), the
//! output mode, and the binding's value vector, folded FNV-style over its
//! `(attribute, value)` pairs. The fold is 64 bits over caller-chosen
//! values, so two bindings can collide: every entry also stores the
//! [`ResultId`] it was computed for, and a lookup whose identity differs is
//! a miss, never another binding's answer.

use adj_relational::cache::Cache;
use adj_relational::{BoundValues, OutputMode, QueryOutput};

/// The result LRU: up to `capacity` results (0 disables it), each
/// forgotten with the database registration it was computed against.
pub fn result_lru(capacity: usize) -> Cache<u64, ResultEntry> {
    Cache::new(capacity, |_| 1, |_, e| e.epoch)
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

/// One cached result: the identity it answers for, the database
/// registration (epoch) it was computed against, and the output.
#[derive(Debug)]
pub struct ResultEntry {
    plan_key: u64,
    mode: OutputMode,
    binding: BoundValues,
    epoch: u64,
    output: QueryOutput,
}

impl ResultEntry {
    /// The entry for `id`'s `output`, computed against registration `epoch`.
    pub fn new(id: &ResultId<'_>, epoch: u64, output: QueryOutput) -> Self {
        ResultEntry {
            plan_key: id.plan_key,
            mode: id.mode,
            binding: id.binding.clone(),
            epoch,
            output,
        }
    }

    /// The output, if this entry answers for `id` (a colliding key's entry
    /// answers for another identity).
    pub fn answer(&self, id: &ResultId<'_>) -> Option<QueryOutput> {
        let same =
            self.plan_key == id.plan_key && self.mode == id.mode && self.binding == *id.binding;
        same.then(|| self.output.clone())
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

    fn put(cache: &Cache<u64, ResultEntry>, key: u64, epoch: u64, n: u64) -> usize {
        cache.insert(key, ResultEntry::new(&id(&binding(1)), epoch, QueryOutput::Count(n)))
    }

    fn get(cache: &Cache<u64, ResultEntry>, key: u64) -> Option<QueryOutput> {
        cache.get_if(&key, |e| e.answer(&id(&binding(1))))
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = result_lru(4);
        assert!(get(&cache, 9).is_none());
        put(&cache, 9, 0, 42);
        assert_eq!(get(&cache, 9), Some(QueryOutput::Count(42)));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.len), (1, 1, 1, 1));
    }

    #[test]
    fn a_colliding_key_is_a_miss_that_overwrites() {
        let cache = result_lru(4);
        let (a, b) = (binding(1), binding(2));
        let get = |id: &ResultId<'_>| cache.get_if(&9, |e| e.answer(id));
        cache.insert(9, ResultEntry::new(&id(&a), 0, QueryOutput::Count(42)));
        assert!(get(&id(&b)).is_none(), "b must not be served a's answer");
        assert!(get(&ResultId { mode: OutputMode::Exists, ..id(&a) }).is_none());
        assert!(get(&ResultId { plan_key: 8, ..id(&a) }).is_none());
        cache.insert(9, ResultEntry::new(&id(&b), 0, QueryOutput::Count(5)));
        assert_eq!(get(&id(&b)), Some(QueryOutput::Count(5)));
        assert!(get(&id(&a)).is_none(), "the slot now answers for b only");
        assert_eq!(cache.stats().len, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = result_lru(2);
        put(&cache, 1, 0, 1);
        put(&cache, 2, 0, 2);
        assert!(get(&cache, 1).is_some()); // 2 is now the LRU
        assert_eq!(put(&cache, 3, 0, 3), 1);
        assert!(get(&cache, 2).is_none(), "2 was least recently used");
        assert_eq!((cache.stats().evictions, cache.stats().len), (1, 2));
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = result_lru(0);
        put(&cache, 1, 0, 1);
        assert!(get(&cache, 1).is_none());
        assert_eq!(cache.stats().len, 0);
    }

    #[test]
    fn clear_empties() {
        // Forgetting a registration drops its results only; taking every
        // entry empties the cache.
        let cache = result_lru(4);
        put(&cache, 1, 10, 1);
        put(&cache, 2, 20, 2);
        assert_eq!(cache.forget(10), 1);
        assert!(get(&cache, 2).is_some(), "another registration's result stays");
        assert_eq!(cache.take(|_, _| true).len(), 1);
        assert_eq!(cache.stats().len, 0);
    }

    #[test]
    fn a_poisoned_lock_recovers_and_serves_hits() {
        let cache = result_lru(4);
        put(&cache, 1, 0, 1);
        let died = std::panic::catch_unwind(|| cache.take(|_, _| panic!("a batch died")));
        assert!(died.is_err());
        assert!(get(&cache, 1).is_none(), "suspect contents dropped, not served");
        put(&cache, 1, 0, 1);
        assert_eq!(get(&cache, 1), Some(QueryOutput::Count(1)), "hits are served again");
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = result_lru(8);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..100u64 {
                        let k = (t * 100 + i) % 12;
                        if get(cache, k).is_none() {
                            put(cache, k, t, k);
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 400);
        cache.check(|_| true, true).unwrap();
    }
}
