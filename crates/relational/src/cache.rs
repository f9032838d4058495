//! The one cache every serving-layer store is an instance of: a
//! weight-budgeted map in exact least-recently-used order, with one insert
//! rule, one build-claim protocol, one poisoning rule and one set of
//! counters. The plan cache, the per-binding result LRU and the index cache
//! differ only in their key, value, weight and tag.
//!
//! Entries are kept by the crate's recency index (`lru.rs`): a slab threaded
//! by an intrusive list in exact LRU order, so hits, inserts and evictions
//! are O(1). Keys hash with std's randomly seeded hasher unless the owner
//! names another:
//! the plan and result caches key on digests of caller-supplied text and
//! bindings, while the index cache keys on its own layouts and keeps the Fx
//! hasher.
//!
//! **Weights and the insert rule.** Every entry weighs what the cache's
//! `weigh` says (resident bytes for the index cache, 1 for the entry-count
//! caches) and the capacity is in the same unit. An entry heavier than the
//! capacity is not stored; otherwise the least-recent entries *other than
//! the key itself* are evicted until the new weight fits, so republishing a
//! resident key never evicts room it already holds. A capacity of 0
//! disables the cache: every lookup misses and nothing is stored.
//!
//! **Tags.** Every entry belongs to one tag (`tag`: the database
//! registration it was derived from), and [`Cache::forget`] drops one tag's
//! entries.
//!
//! **Build claims.** Every miss of [`Cache::lookup`] hands back a [`Claim`],
//! the caller's one path back into the cache. A cold miss's claim is
//! *exclusive*: it registers the caller as the key's one in-flight builder,
//! and a concurrent lookup of the same key waits for it (polling the
//! `keep_waiting` closure it was given) and comes back as a coalesced hit.
//! Dropping an unpublished claim abandons the build: the waiters wake, and
//! the first one through claims the key itself. A miss that could not
//! coalesce (the cache is disabled, or the wait was given up) gets a claim
//! that publishes without waking anyone.
//!
//! **Poisoning.** A panic while the lock was held may have left the list
//! half-relinked, so the next locker drops every entry (counted as
//! invalidations), clears the poison and carries on cold. Cached entries
//! are derived state: rebuilding them is always correct, and serving from a
//! torn list is not.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::lru::Lru;

/// How often a waiter re-polls its `keep_waiting` closure while blocked on
/// another caller's build. Builds are milliseconds-scale, so a short poll
/// keeps deadline latency tight without busy-waiting.
const CLAIM_POLL: Duration = Duration::from_millis(1);

/// Counters describing a cache's behaviour since it was created.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a reusable entry.
    pub hits: u64,
    /// Lookups that had to build.
    pub misses: u64,
    /// Keys newly stored (an overwrite is not an insertion).
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries dropped by `forget`, `take` or poison recovery.
    pub invalidations: u64,
    /// Hits that waited for another caller's in-flight build.
    pub coalesced_builds: u64,
    /// Current number of entries.
    pub len: usize,
    /// Current sum of the entries' weights.
    pub weight: usize,
    /// The weight budget eviction enforces.
    pub capacity: usize,
}

impl CacheStats {
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

/// One in-flight build: waiters block here until its claim publishes or
/// drops.
#[derive(Default)]
struct Build {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Build {
    /// Blocks until the build finishes; `false` if `keep_waiting` gave up
    /// first.
    fn wait(&self, keep_waiting: &mut impl FnMut() -> bool) -> bool {
        let mut done = lock_ignoring_poison(&self.done);
        while !*done {
            if !keep_waiting() {
                return false;
            }
            done = self.cv.wait_timeout(done, CLAIM_POLL).unwrap_or_else(PoisonError::into_inner).0;
        }
        true
    }
}

/// A lock whose data stays sound across a panic (a flag, or a registry
/// every claim removes its own slot from).
fn lock_ignoring_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn bump(counter: &AtomicU64, n: usize) {
    if n > 0 {
        counter.fetch_add(n as u64, Ordering::Relaxed);
    }
}

/// A thread-safe, weight-budgeted LRU cache (see the module docs).
pub struct Cache<K, V, S = RandomState> {
    capacity: usize,
    weigh: fn(&V) -> usize,
    tag: fn(&K, &V) -> u64,
    lru: Mutex<Lru<K, V, S>>,
    /// In-flight builds: a key is present exactly while an exclusive claim
    /// on it is live. Guarded apart from `lru`, so waiters never block
    /// cache traffic.
    pending: Mutex<HashMap<K, Arc<Build>, S>>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    coalesced: AtomicU64,
}

/// What [`Cache::lookup`] found.
pub enum Lookup<'a, K: Hash + Eq + Clone, V, S: BuildHasher + Default> {
    /// A reusable entry. `coalesced` is true when the lookup waited for a
    /// concurrent build and reused its result.
    Hit {
        /// The cached value.
        value: V,
        /// Whether the value came from a build this lookup waited for.
        coalesced: bool,
    },
    /// Nothing cached: build, then publish through the claim.
    Miss(Claim<'a, K, V, S>),
}

/// The permission to publish one key, handed out by every miss of
/// [`Cache::lookup`]. An exclusive claim makes its holder the key's one
/// in-flight builder: concurrent lookups of the key wait until it
/// publishes or drops. Dropping an unpublished claim (error, cancellation,
/// panic unwind) abandons the build, so an aborted caller never strands
/// the key.
pub struct Claim<'a, K: Hash + Eq + Clone, V, S: BuildHasher + Default> {
    cache: &'a Cache<K, V, S>,
    key: K,
    exclusive: bool,
}

impl<K: Hash + Eq + Clone, V, S: BuildHasher + Default> Claim<'_, K, V, S> {
    /// Whether this claim registered its holder as the key's one in-flight
    /// builder (a miss that could not coalesce gets a plain claim).
    pub fn is_exclusive(&self) -> bool {
        self.exclusive
    }

    /// Stores `value` under the claimed key by the insert rule, wakes every
    /// waiter (on drop, right after), and returns how many entries it
    /// evicted.
    pub fn publish(self, value: V) -> usize {
        self.cache.insert(self.key.clone(), value)
    }
}

impl<K: Hash + Eq + Clone, V, S: BuildHasher + Default> Drop for Claim<'_, K, V, S> {
    fn drop(&mut self) {
        // Published, waiters wake and find the entry. Abandoned, they find
        // the key still cold and race to claim it themselves.
        if self.exclusive {
            if let Some(build) = lock_ignoring_poison(&self.cache.pending).remove(&self.key) {
                *lock_ignoring_poison(&build.done) = true;
                build.cv.notify_all();
            }
        }
    }
}

impl<K: Hash + Eq + Clone, V, S: BuildHasher + Default> Cache<K, V, S> {
    /// A cache holding entries up to a total weight of `capacity` (0
    /// disables it), weighing each value with `weigh` and tagging each
    /// entry with `tag`.
    pub fn new(capacity: usize, weigh: fn(&V) -> usize, tag: fn(&K, &V) -> u64) -> Self {
        Cache {
            capacity,
            weigh,
            tag,
            lru: Mutex::new(Lru::new()),
            pending: Mutex::new(HashMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Locks the recency index. If a panic poisoned the lock, every entry
    /// is dropped (counted as invalidations) and the poison cleared first.
    fn lock(&self) -> MutexGuard<'_, Lru<K, V, S>> {
        let (guard, dropped) = Lru::lock(&self.lru);
        bump(&self.invalidations, dropped);
        guard
    }

    /// What `read` makes of the value under `key`, counted as a hit, or a
    /// miss when there is no entry or `read` rejects it (`None`: the result
    /// LRU rejects an entry stored for a colliding identity). A hit makes
    /// the entry the most recent; a rejected entry keeps its place.
    pub fn get_if<R>(&self, key: &K, read: impl FnOnce(&V) -> Option<R>) -> Option<R> {
        let got = if self.capacity == 0 { None } else { self.lock().get_if(key, read) };
        bump(if got.is_some() { &self.hits } else { &self.misses }, 1);
        got
    }

    /// [`Cache::get_if`] for each of `keys`, in order, under one lock:
    /// `read(i, value)` reads the value under `keys[i]`, and slot `i` of
    /// the result is what it made of it. Hits, misses and recency move
    /// exactly as that many `get_if` calls would move them; each counter is
    /// bumped once.
    pub fn get_if_each<R>(
        &self,
        keys: &[K],
        mut read: impl FnMut(usize, &V) -> Option<R>,
    ) -> Vec<Option<R>> {
        let got: Vec<Option<R>> = if self.capacity == 0 {
            keys.iter().map(|_| None).collect()
        } else {
            let mut lru = self.lock();
            keys.iter().enumerate().map(|(i, key)| lru.get_if(key, |v| read(i, v))).collect()
        };
        let hits = got.iter().filter(|g| g.is_some()).count();
        bump(&self.hits, hits);
        bump(&self.misses, keys.len() - hits);
        got
    }

    /// The value under `key`, or a claim to build it. A cold key hands
    /// back an exclusive claim; a key another caller is building makes
    /// this call wait, polling `keep_waiting` every millisecond, and come
    /// back as a coalesced hit when the build publishes. If `keep_waiting`
    /// says stop, the miss gets a plain claim. The key is borrowed: only a
    /// miss clones it, into its claim, so a hit allocates nothing.
    pub fn lookup(&self, key: &K, mut keep_waiting: impl FnMut() -> bool) -> Lookup<'_, K, V, S>
    where
        V: Clone,
    {
        let hit = |value, coalesced| {
            bump(&self.hits, 1);
            bump(&self.coalesced, coalesced as usize);
            Lookup::Hit { value, coalesced }
        };
        let (mut waited, mut looking) = (false, self.capacity > 0);
        while looking {
            if let Some(value) = self.lock().get_if(key, |v| Some(v.clone())) {
                return hit(value, waited);
            }
            let build = {
                let mut pending = lock_ignoring_poison(&self.pending);
                match pending.get(key) {
                    Some(build) => Arc::clone(build),
                    None => {
                        // No build of `key` can finish while the registry
                        // is locked: look again for one that finished
                        // since the look above, before building anew.
                        if let Some(value) = self.lock().get_if(key, |v| Some(v.clone())) {
                            return hit(value, waited);
                        }
                        pending.insert(key.clone(), Arc::default());
                        bump(&self.misses, 1);
                        return Lookup::Miss(Claim {
                            cache: self,
                            key: key.clone(),
                            exclusive: true,
                        });
                    }
                }
            };
            // Another caller is building this key: wait for it. When the
            // build finishes (published, abandoned or already evicted) the
            // loop looks again.
            waited = true;
            looking = build.wait(&mut keep_waiting);
        }
        bump(&self.misses, 1);
        Lookup::Miss(Claim { cache: self, key: key.clone(), exclusive: false })
    }

    /// Stores `value` under `key` by the insert rule and returns how many
    /// entries it evicted. Whatever sat under `key` is replaced. Victims
    /// are dropped after the lock is released; an entry-count cache evicts
    /// at most one, which takes no allocation.
    pub fn insert(&self, key: K, value: V) -> usize {
        if self.capacity == 0 {
            return 0;
        }
        let weight = (self.weigh)(&value);
        let (mut first, mut rest) = (None, Vec::new());
        let fresh = self.lock().insert(key, value, weight, self.capacity, |victim| {
            if first.is_none() {
                first = Some(victim);
            } else {
                rest.push(victim);
            }
        });
        let evicted = first.is_some() as usize + rest.len();
        bump(&self.insertions, fresh as usize);
        bump(&self.evictions, evicted);
        evicted
    }

    /// Removes and returns every entry `pick` selects (counted as
    /// invalidations), in no particular order.
    pub fn take(&self, pick: impl FnMut(&K, &V) -> bool) -> Vec<(K, V)> {
        let taken = self.lock().take(pick);
        bump(&self.invalidations, taken.len());
        taken
    }

    /// The key of a resident entry `pick` selects, if any; nothing moves
    /// and no counter does.
    pub fn find(&self, mut pick: impl FnMut(&K, &V) -> bool) -> Option<K> {
        let lru = self.lock();
        let found = lru.entries().find(|(k, v, _)| pick(k, v));
        found.map(|(k, _, _)| k.clone())
    }

    /// Drops every entry of `tag` and returns how many went.
    pub fn forget(&self, tag: u64) -> usize {
        self.take(|k, v| (self.tag)(k, v) == tag).len()
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        // Lock first: a pending poison recovery counts its invalidations.
        let (len, weight) = {
            let lru = self.lock();
            (lru.len(), lru.weight())
        };
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        CacheStats {
            hits: load(&self.hits),
            misses: load(&self.misses),
            insertions: load(&self.insertions),
            evictions: load(&self.evictions),
            invalidations: load(&self.invalidations),
            coalesced_builds: load(&self.coalesced),
            len,
            weight,
            capacity: self.capacity,
        }
    }

    /// Checks the cache's invariants: the resident weight is the sum of
    /// the entries' weights and fits the capacity, every entry's tag is
    /// `live`, and — when `idle` says no caller is mid-build — no claim is
    /// pending.
    pub fn check(&self, live: impl Fn(u64) -> bool, idle: bool) -> Result<(), String> {
        let lru = self.lock();
        let mut weight = 0;
        for (key, value, w) in lru.entries() {
            let tag = (self.tag)(key, value);
            if !live(tag) {
                return Err(format!("an entry of forgotten tag {tag:#x} is resident"));
            }
            weight += w;
        }
        if weight != lru.weight() || weight > self.capacity {
            return Err(format!(
                "resident weight {} against Σ entries {weight} and capacity {}",
                lru.weight(),
                self.capacity
            ));
        }
        drop(lru);
        let pending = lock_ignoring_poison(&self.pending).len();
        if idle && pending > 0 {
            return Err(format!("{pending} claims outlive their builders"));
        }
        Ok(())
    }
}

impl<K: Hash + Eq + Clone, V, S: BuildHasher + Default> std::fmt::Debug for Cache<K, V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cache").field("stats", &self.stats()).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cached value: the tag it is forgotten by, the identity a `get_if`
    /// accepts, and its weight.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Val {
        tag: u8,
        ident: u8,
        weight: usize,
    }

    type TestCache = Cache<u8, Val>;

    fn cache(capacity: usize) -> TestCache {
        Cache::new(capacity, |v: &Val| v.weight, |_, v: &Val| v.tag as u64)
    }

    /// The reference: entries in recency order (most recent first), the
    /// keys with a live exclusive claim, and the counters.
    #[derive(Default)]
    struct Model {
        entries: Vec<(u8, Val)>,
        pending: Vec<u8>,
        stats: CacheStats,
    }

    impl Model {
        fn position(&self, key: u8) -> Option<usize> {
            self.entries.iter().position(|&(k, _)| k == key)
        }

        fn get(&mut self, key: u8, accept: impl Fn(&Val) -> bool) -> Option<Val> {
            let found = self.position(key).filter(|&i| accept(&self.entries[i].1));
            let got = found.filter(|_| self.stats.capacity > 0).map(|i| {
                let entry = self.entries.remove(i);
                self.entries.insert(0, entry);
                entry.1
            });
            *if got.is_some() { &mut self.stats.hits } else { &mut self.stats.misses } += 1;
            got
        }

        fn insert(&mut self, key: u8, val: Val) {
            let cap = self.stats.capacity;
            if cap == 0 || val.weight > cap {
                return;
            }
            let old = self.position(key).map(|i| self.entries.remove(i));
            let mut total: usize = self.entries.iter().map(|(_, v)| v.weight).sum();
            while total + val.weight > cap {
                let (_, victim) = self.entries.pop().expect("a victim");
                total -= victim.weight;
                self.stats.evictions += 1;
            }
            self.entries.insert(0, (key, val));
            self.stats.insertions += old.is_none() as u64;
        }

        fn drop_where(&mut self, pick: impl Fn(u8, &Val) -> bool) -> Vec<u8> {
            let mut taken: Vec<u8> =
                self.entries.iter().filter(|(k, v)| pick(*k, v)).map(|&(k, _)| k).collect();
            self.entries.retain(|(k, v)| !pick(*k, v));
            self.stats.invalidations += taken.len() as u64;
            taken.sort_unstable();
            taken
        }
    }

    /// SplitMix64: a seeded, dependency-free op stream.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// One op log, derived from `seed` alone, replayed against the cache
    /// and the model; after every op the contents in recency order, every
    /// counter and the cache's own invariants must agree.
    fn replay(seed: u64) {
        let mut rng = Rng(seed);
        let capacity = [0, 1, 2, 7, 40][rng.below(5) as usize];
        let c = cache(capacity);
        let mut model = Model::default();
        model.stats.capacity = capacity;
        let mut claims: Vec<(u8, Claim<'_, u8, Val, RandomState>)> = Vec::new();
        for step in 0..120 {
            let key = rng.below(6) as u8;
            let weight = match rng.below(6) {
                0 => 0,
                1 => 1,
                2 => capacity + 1 + rng.below(3) as usize,
                _ => rng.below(capacity as u64 / 2 + 2) as usize,
            };
            let val = Val { tag: rng.below(3) as u8, ident: rng.below(2) as u8, weight };
            let op = rng.below(100);
            let ctx = format!("seed {seed} (capacity {capacity}) step {step} op {op} key {key}");
            match op {
                0..=19 => {
                    let got = c.get_if(&key, |v| Some(*v));
                    assert_eq!(got, model.get(key, |_| true), "{ctx}: get");
                }
                20..=29 => {
                    let ident = rng.below(2) as u8;
                    let got = c.get_if(&key, |v| (v.ident == ident).then_some(*v));
                    assert_eq!(got, model.get(key, |v| v.ident == ident), "{ctx}: get_if");
                }
                30..=59 => {
                    c.insert(key, val);
                    model.insert(key, val);
                }
                60..=64 => {
                    let tag = rng.below(3) as u8;
                    let n = c.forget(tag as u64);
                    assert_eq!(n, model.drop_where(|_, v| v.tag == tag).len(), "{ctx}: forget");
                }
                65..=67 => {
                    let mut got: Vec<u8> =
                        c.take(|k, v| k % 2 == v.ident).into_iter().map(|(k, _)| k).collect();
                    got.sort_unstable();
                    assert_eq!(got, model.drop_where(|k, v| k % 2 == v.ident), "{ctx}: take");
                }
                68 => {
                    let n = c.take(|_, _| true).len();
                    assert_eq!(n, model.drop_where(|_, _| true).len(), "{ctx}: clear");
                }
                69..=84 => match c.lookup(&key, || false) {
                    Lookup::Hit { value, coalesced } => {
                        assert!(!coalesced, "{ctx}: nothing to wait for");
                        assert_eq!(Some(value), model.get(key, |_| true), "{ctx}: claim hit");
                    }
                    Lookup::Miss(claim) => {
                        assert_eq!(model.get(key, |_| true), None, "{ctx}: claim miss");
                        let exclusive = capacity > 0 && !model.pending.contains(&key);
                        assert_eq!(claim.is_exclusive(), exclusive, "{ctx}: claim kind");
                        if exclusive {
                            model.pending.push(key);
                        }
                        claims.push((key, claim));
                    }
                },
                85..=96 if !claims.is_empty() => {
                    let (key, claim) = claims.swap_remove(rng.below(claims.len() as u64) as usize);
                    if claim.is_exclusive() {
                        model.pending.retain(|&k| k != key);
                    }
                    if op <= 92 {
                        claim.publish(val);
                        model.insert(key, val);
                    }
                }
                97 => {
                    // A holder dies mid-update: the next lock drops
                    // everything and carries on.
                    poison(&c);
                    model.drop_where(|_, _| true);
                }
                98 => {
                    // One lock for several lookups: each as its own get_if.
                    let keys: Vec<u8> = (0..rng.below(5)).map(|_| rng.below(6) as u8).collect();
                    let ident = rng.below(2) as u8;
                    let got = c.get_if_each(&keys, |i, v| {
                        (v.ident == ident || i % 2 == 0).then_some((i, *v))
                    });
                    let want: Vec<Option<(usize, Val)>> = (keys.iter().enumerate())
                        .map(|(i, &k)| {
                            model.get(k, |v| v.ident == ident || i % 2 == 0).map(|v| (i, v))
                        })
                        .collect();
                    assert_eq!(got, want, "{ctx}: get_if_each {keys:?}");
                }
                _ => {}
            }
            let order: Vec<(u8, Val)> = c.lock().entries().map(|(&k, &v, _)| (k, v)).collect();
            assert_eq!(order, model.entries, "{ctx}: contents in recency order");
            model.stats.len = model.entries.len();
            model.stats.weight = model.entries.iter().map(|(_, v)| v.weight).sum();
            assert_eq!(c.stats(), model.stats, "{ctx}: counters");
            assert!(model.stats.weight <= capacity, "{ctx}: weight over capacity");
            assert_eq!(lock_ignoring_poison(&c.pending).len(), model.pending.len(), "{ctx}");
            c.check(|_| true, false).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        }
        drop(claims);
        c.check(|_| true, true).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }

    #[test]
    fn random_op_logs_match_the_model() {
        // A failure names its seed; `replay(seed)` alone reproduces it.
        for seed in 0..1_200 {
            replay(seed);
        }
    }

    fn val(weight: usize) -> Val {
        Val { tag: 0, ident: 0, weight }
    }

    /// Poisons the cache's lock the way a dying holder would.
    fn poison(c: &TestCache) {
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = c.lru.lock();
            panic!("a holder died mid-update");
        }));
        assert!(died.is_err() && c.lru.is_poisoned());
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let c = cache(4);
        let Lookup::Miss(claim) = c.lookup(&7, || true) else { panic!("cold key must miss") };
        claim.publish(val(1));
        assert!(matches!(c.lookup(&7, || true), Lookup::Hit { coalesced: false, .. }));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.len), (1, 1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c = cache(2);
        c.insert(1, val(1));
        c.insert(2, val(1));
        assert!(c.get_if(&1, |_| Some(())).is_some()); // 2 is now the LRU
        assert_eq!(c.insert(3, val(1)), 1);
        assert!(c.get_if(&2, |_| Some(())).is_none(), "2 was least recently used");
        assert_eq!((c.stats().evictions, c.stats().len), (1, 2));
    }

    #[test]
    fn lru_eviction_respects_byte_budget() {
        let c = cache(10);
        c.insert(1, val(4));
        c.insert(2, val(4));
        c.get_if(&1, |_| Some(()));
        assert_eq!(c.insert(3, val(4)), 1, "one victim frees enough");
        assert!(c.get_if(&2, |_| Some(())).is_none() && c.get_if(&1, |_| Some(())).is_some());
        assert_eq!(c.stats().weight, 8);
    }

    #[test]
    fn oversized_entry_is_not_cached() {
        let c = cache(8);
        c.insert(1, val(3));
        assert_eq!(c.insert(2, val(9)), 0, "nothing is evicted for it");
        assert_eq!((c.stats().len, c.stats().weight), (1, 3));
    }

    #[test]
    fn zero_capacity_disables() {
        let c = cache(0);
        c.insert(1, val(0));
        assert!(c.get_if(&1, |_| Some(())).is_none());
        assert_eq!((c.stats().len, c.stats().misses), (0, 1));
    }

    #[test]
    fn zero_capacity_never_claims() {
        match cache(0).lookup(&1, || true) {
            Lookup::Miss(claim) => assert!(!claim.is_exclusive(), "nothing to coalesce on"),
            Lookup::Hit { .. } => panic!("a disabled cache must miss"),
        }
    }

    #[test]
    fn a_poisoned_lock_recovers_and_serves_hits() {
        let c = cache(4);
        c.insert(1, val(1));
        c.insert(2, val(1));
        poison(&c);
        assert!(c.get_if(&1, |_| Some(())).is_none(), "suspect contents dropped, not served");
        assert!(!c.lru.is_poisoned(), "poison cleared on recovery");
        c.insert(1, val(1));
        assert!(c.get_if(&1, |_| Some(())).is_some(), "hits are served again");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.len, s.invalidations), (1, 1, 1, 2));
    }

    /// Blocks until `n` callers wait on `key`'s build (each holds a handle
    /// on it beside the registry's).
    fn await_waiters(c: &TestCache, key: u8, n: usize) {
        let waiting = || lock_ignoring_poison(&c.pending).get(&key).map(Arc::strong_count);
        while waiting().unwrap_or(0) < n + 1 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn coalesced_miss_waits_for_one_build() {
        // N threads race a cold key: exactly one gets an exclusive claim
        // and builds; the rest block on it and come back as coalesced hits.
        const THREADS: usize = 8;
        let c = cache(100);
        let built = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| match c.lookup(&1, || true) {
                    Lookup::Miss(claim) => {
                        assert!(claim.is_exclusive(), "coalescing must engage");
                        built.fetch_add(1, Ordering::Relaxed);
                        await_waiters(&c, 1, THREADS - 1);
                        claim.publish(Val { tag: 0, ident: 0, weight: 1 });
                    }
                    Lookup::Hit { coalesced, .. } => assert!(coalesced),
                });
            }
        });
        assert_eq!(built.load(Ordering::Relaxed), 1, "exactly one thread builds");
        let s = c.stats();
        assert_eq!((s.insertions, s.misses, s.hits), (1, 1, THREADS as u64 - 1));
        assert_eq!(s.coalesced_builds, THREADS as u64 - 1);
        c.check(|_| true, true).unwrap();
    }

    #[test]
    fn abandoned_claim_wakes_waiters_who_reclaim() {
        let c = cache(100);
        let Lookup::Miss(claim) = c.lookup(&1, || true) else { panic!("cold key must miss") };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| match c.lookup(&1, || true) {
                Lookup::Miss(claim) if claim.is_exclusive() => {
                    claim.publish(Val { tag: 0, ident: 0, weight: 1 });
                    true
                }
                _ => false,
            });
            await_waiters(&c, 1, 1);
            drop(claim); // the build failed: abandon without publishing
            assert!(waiter.join().unwrap(), "the waiter inherits the build");
        });
        let s = c.stats();
        assert_eq!((s.len, s.coalesced_builds), (1, 0), "an abandoned wait is not coalesced");
        c.check(|_| true, true).unwrap();
    }

    #[test]
    fn concurrent_access_is_safe() {
        let c = cache(8);
        std::thread::scope(|s| {
            for t in 0..4u8 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..100u8 {
                        let key = (t.wrapping_mul(100).wrapping_add(i)) % 12;
                        if let Lookup::Miss(claim) = c.lookup(&key, || true) {
                            claim.publish(Val { tag: t, ident: 0, weight: 1 + (key % 3) as usize });
                        }
                    }
                });
            }
        });
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 400);
        c.check(|_| true, true).unwrap();
    }
}
