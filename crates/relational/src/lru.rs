//! The recency index every cache in the workspace evicts by: exact
//! least-recently-used order with O(1) hits, inserts and evictions.
//!
//! Entries live in a slab threaded by an intrusive doubly linked list in
//! recency order (head = most recently touched, tail = least), and a hash
//! index maps each key to its slot. A hit relinks its slot to the head, an
//! insert pushes one there, and eviction pops the tail. The victim is
//! therefore always the entry touched longest ago — exactly what a scan for
//! the smallest per-entry last-use tick picks — without visiting any other
//! entry. Each entry carries a weight (resident bytes for the index cache,
//! 1 for the entry-count caches) and the index keeps their sum, so a byte
//! budget ([`Lru::make_room`]) and an entry count ([`Lru::insert_capped`])
//! are two policies over one structure. Keys hash with std's randomly
//! seeded hasher unless the owner names another: the plan and result caches
//! key on digests of caller-supplied query text and bindings, while the
//! index cache keys on its own plans' layouts and keeps the Fx hasher.
//!
//! [`SharedLru`] is the thread-safe form the caches hold: one mutex, and one
//! rule for poisoning. A panic while the lock was held may have left the
//! list half-relinked, so the next locker drops every entry, clears the
//! poison and carries on cold. Cached entries are derived state: rebuilding
//! them is always correct, and serving from a torn list is not.

use std::collections::hash_map::{Entry as MapEntry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Link value for "no slot".
const NIL: u32 = u32::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    weight: usize,
}

struct Slot<K, V> {
    prev: u32,
    next: u32,
    /// `None` while the slot sits on the free list.
    node: Option<Node<K, V>>,
}

/// An exact LRU recency index over weighted entries, its keys hashed by
/// `S`. Not thread-safe; see [`SharedLru`].
pub struct Lru<K, V, S = RandomState> {
    index: HashMap<K, u32, S>,
    slots: Vec<Slot<K, V>>,
    free: Vec<u32>,
    /// Most recently touched slot.
    head: u32,
    /// Least recently touched slot: the next victim.
    tail: u32,
    weight: usize,
}

impl<K, V, S: Default> Default for Lru<K, V, S> {
    fn default() -> Self {
        Lru {
            index: HashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            weight: 0,
        }
    }
}

impl<K, V, S> std::fmt::Debug for Lru<K, V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lru").field("len", &self.index.len()).field("weight", &self.weight).finish()
    }
}

impl<K: Hash + Eq + Clone, V, S: BuildHasher + Default> Lru<K, V, S> {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the index holds no entry.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Sum of the entries' weights.
    pub fn weight(&self) -> usize {
        self.weight
    }

    /// The value under `key`, made the most recent entry.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.get_if(key, |_| true)
    }

    /// The value under `key` if `accept` takes it, made the most recent
    /// entry. A rejected value is a miss and keeps its place in the order
    /// (the result LRU rejects an entry stored for a colliding identity).
    pub fn get_if(&mut self, key: &K, accept: impl FnOnce(&V) -> bool) -> Option<&V> {
        let slot = *self.index.get(key)?;
        if !accept(&self.node(slot).value) {
            return None;
        }
        self.touch(slot);
        Some(&self.node(slot).value)
    }

    /// Stores `value` under `key` at `weight` as the most recent entry and
    /// returns the value it replaced, if any. Evicts nothing.
    pub fn insert(&mut self, key: K, value: V, weight: usize) -> Option<V> {
        match self.index.entry(key) {
            MapEntry::Occupied(o) => {
                let slot = *o.get();
                self.touch(slot);
                let node = self.slots[slot as usize].node.as_mut().expect("indexed slot is live");
                let old_weight = std::mem::replace(&mut node.weight, weight);
                let old = std::mem::replace(&mut node.value, value);
                self.weight = self.weight - old_weight + weight;
                Some(old)
            }
            MapEntry::Vacant(v) => {
                let node = Some(Node { key: v.key().clone(), value, weight });
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.slots[slot as usize].node = node;
                        slot
                    }
                    None => {
                        let slot = u32::try_from(self.slots.len())
                            .ok()
                            .filter(|&s| s != NIL)
                            .expect("recency index outgrew u32 slots");
                        self.slots.push(Slot { prev: NIL, next: NIL, node });
                        slot
                    }
                };
                v.insert(slot);
                self.push_front(slot);
                self.weight += weight;
                None
            }
        }
    }

    /// The entry-count policy of the plan cache and the result LRU: stores
    /// `value` under `key` at weight 1 as the most recent entry, then, if a
    /// new key took the count past `capacity`, evicts the least recent one.
    /// Returns whether the key was new and the evicted entry. Overwriting a
    /// key never evicts. Callers treat capacity 0 as "disabled" and do not
    /// insert at all.
    pub fn insert_capped(&mut self, key: K, value: V, capacity: usize) -> (bool, Option<(K, V)>) {
        let fresh = self.insert(key, value, 1).is_none();
        let evicted = if fresh && self.len() > capacity { self.pop_lru() } else { None };
        (fresh, evicted)
    }

    /// The byte-budget policy of the index cache: evicts least-recent
    /// entries until `need` more weight fits under `budget` (or nothing is
    /// left), and returns them in eviction order.
    pub fn make_room(&mut self, need: usize, budget: usize) -> Vec<(K, V)> {
        let mut evicted = Vec::new();
        while self.weight + need > budget {
            match self.pop_lru() {
                Some(victim) => evicted.push(victim),
                None => break,
            }
        }
        evicted
    }

    /// Removes and returns the least recently touched entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        (self.tail != NIL).then(|| self.remove_slot(self.tail))
    }

    /// Drops every entry `keep` rejects and returns how many went. Entries
    /// are offered in the hash index's iteration order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) -> usize {
        let rejected: Vec<u32> = self
            .index
            .iter()
            .filter(|&(key, &slot)| !keep(key, &self.node(slot).value))
            .map(|(_, &slot)| slot)
            .collect();
        for &slot in &rejected {
            self.remove_slot(slot);
        }
        rejected.len()
    }

    /// Drops every entry and returns how many went.
    pub fn clear(&mut self) -> usize {
        let dropped = self.len();
        self.index.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.weight = 0;
        dropped
    }

    fn node(&self, slot: u32) -> &Node<K, V> {
        self.slots[slot as usize].node.as_ref().expect("indexed slot is live")
    }

    fn remove_slot(&mut self, slot: u32) -> (K, V) {
        self.unlink(slot);
        let node = self.slots[slot as usize].node.take().expect("linked slot is live");
        self.index.remove(&node.key);
        self.weight -= node.weight;
        self.free.push(slot);
        (node.key, node.value)
    }

    fn touch(&mut self, slot: u32) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        let s = &mut self.slots[slot as usize];
        s.prev = NIL;
        s.next = old_head;
        match old_head {
            NIL => self.tail = slot,
            h => self.slots[h as usize].prev = slot,
        }
        self.head = slot;
    }
}

/// An [`Lru`] behind a mutex that recovers from poisoning by dropping every
/// entry (see the module docs).
pub struct SharedLru<K, V, S = RandomState> {
    inner: Mutex<Lru<K, V, S>>,
    recovered: AtomicU64,
}

impl<K, V, S: Default> Default for SharedLru<K, V, S> {
    fn default() -> Self {
        SharedLru { inner: Mutex::new(Lru::default()), recovered: AtomicU64::new(0) }
    }
}

impl<K, V, S> std::fmt::Debug for SharedLru<K, V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedLru").field("recovered", &self.recovered()).finish_non_exhaustive()
    }
}

impl<K: Hash + Eq + Clone, V, S: BuildHasher + Default> SharedLru<K, V, S> {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the index. If a panic poisoned the lock, every entry is
    /// dropped (and counted in [`SharedLru::recovered`]) and the poison is
    /// cleared before the guard is handed out.
    pub fn lock(&self) -> MutexGuard<'_, Lru<K, V, S>> {
        self.inner.lock().unwrap_or_else(|poisoned| {
            let mut guard = poisoned.into_inner();
            let dropped = guard.clear();
            self.recovered.fetch_add(dropped as u64, Ordering::Relaxed);
            self.inner.clear_poison();
            guard
        })
    }
}

impl<K, V, S> SharedLru<K, V, S> {
    /// Entries dropped by poison recovery since creation.
    pub fn recovered(&self) -> u64 {
        self.recovered.load(Ordering::Relaxed)
    }

    /// Whether a panic has poisoned the lock since the last recovery.
    pub fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A cached value: which database it belongs to (for `invalidate_db`)
    /// and which identity it answers for (for colliding-identity gets).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Val {
        db: u8,
        ident: u8,
    }

    /// The reference: a map of entries with last-use ticks, evicting by a
    /// `min_by_key` scan for the smallest tick.
    #[derive(Default)]
    struct Reference {
        map: HashMap<u64, (Val, u64, usize)>,
        tick: u64,
        resident: usize,
    }

    impl Reference {
        fn get(&mut self, key: u64, ident: u8) -> bool {
            self.tick += 1;
            let tick = self.tick;
            match self.map.get_mut(&key) {
                Some((v, last_used, _)) if v.ident == ident => {
                    *last_used = tick;
                    true
                }
                _ => false,
            }
        }

        fn evict_min(&mut self) -> u64 {
            let (&lru, _) = self.map.iter().min_by_key(|(_, e)| e.1).expect("non-empty");
            let (_, _, bytes) = self.map.remove(&lru).unwrap();
            self.resident -= bytes;
            lru
        }

        fn put(&mut self, key: u64, val: Val, bytes: usize) -> bool {
            self.tick += 1;
            let old = self.map.insert(key, (val, self.tick, bytes));
            if let Some((_, _, old_bytes)) = old {
                self.resident -= old_bytes;
            }
            self.resident += bytes;
            old.is_none()
        }

        /// The plan cache's / result LRU's insert.
        fn insert_capped(&mut self, key: u64, val: Val, capacity: usize) -> (bool, Vec<u64>) {
            if capacity == 0 {
                return (false, Vec::new());
            }
            let mut victims = Vec::new();
            if !self.map.contains_key(&key) && self.map.len() >= capacity {
                victims.push(self.evict_min());
            }
            (self.put(key, val, 1), victims)
        }

        /// The index cache's insert.
        fn insert_budgeted(&mut self, key: u64, val: Val, bytes: usize, budget: usize) -> Vec<u64> {
            if budget == 0 || bytes > budget {
                return Vec::new();
            }
            let mut victims = Vec::new();
            while self.resident + bytes > budget && !self.map.is_empty() {
                victims.push(self.evict_min());
            }
            self.put(key, val, bytes);
            victims
        }

        fn invalidate_db(&mut self, db: u8) -> usize {
            let before = self.map.len();
            let mut freed = 0;
            self.map.retain(|_, e| {
                let keep = e.0.db != db;
                if !keep {
                    freed += e.2;
                }
                keep
            });
            self.resident -= freed;
            before - self.map.len()
        }
    }

    /// The two policies as the caches drive them, over the recency index.
    fn lru_insert_capped(
        lru: &mut Lru<u64, Val>,
        key: u64,
        val: Val,
        capacity: usize,
    ) -> (bool, Vec<u64>) {
        if capacity == 0 {
            return (false, Vec::new());
        }
        let (fresh, evicted) = lru.insert_capped(key, val, capacity);
        (fresh, evicted.into_iter().map(|(k, _)| k).collect())
    }

    fn lru_insert_budgeted(
        lru: &mut Lru<u64, Val>,
        key: u64,
        val: Val,
        bytes: usize,
        budget: usize,
    ) -> Vec<u64> {
        if budget == 0 || bytes > budget {
            return Vec::new();
        }
        let victims = lru.make_room(bytes, budget).into_iter().map(|(k, _)| k).collect();
        lru.insert(key, val, bytes);
        victims
    }

    /// SplitMix64: a seeded, dependency-free op stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// One random op sequence against both structures; every step's hit,
    /// victims, `len` and weight must agree. `budget` is `None` for the
    /// entry-count policy.
    fn run_against_reference(seed: u64, capacity: usize, budget: Option<usize>, steps: usize) {
        let mut rng = Rng(seed);
        let mut lru: Lru<u64, Val> = Lru::new();
        let mut reference = Reference::default();
        // Few enough keys that overwrites and re-gets are common.
        let keys = (capacity as u64 * 2).clamp(3, 96);
        for step in 0..steps {
            let key = rng.below(keys);
            let val = Val { db: rng.below(3) as u8, ident: rng.below(2) as u8 };
            let what = rng.below(100);
            let ctx = format!("seed {seed} cap {capacity} budget {budget:?} step {step}");
            match what {
                // get, half the time for a colliding identity
                0..=44 => {
                    let ident = rng.below(2) as u8;
                    let got = lru.get_if(&key, |v| v.ident == ident).is_some();
                    assert_eq!(got, reference.get(key, ident), "{ctx}: get {key}");
                }
                // insert or overwrite
                45..=93 => match budget {
                    None => {
                        let got = lru_insert_capped(&mut lru, key, val, capacity);
                        let want = reference.insert_capped(key, val, capacity);
                        assert_eq!(got, want, "{ctx}: insert {key}");
                    }
                    Some(budget) => {
                        let bytes = 1 + rng.below(budget as u64 / 2 + 2) as usize;
                        let got = lru_insert_budgeted(&mut lru, key, val, bytes, budget);
                        let want = reference.insert_budgeted(key, val, bytes, budget);
                        assert_eq!(got, want, "{ctx}: insert {key} at {bytes} bytes");
                    }
                },
                94..=98 => {
                    let db = rng.below(3) as u8;
                    let got = lru.retain(|_, v| v.db != db);
                    assert_eq!(got, reference.invalidate_db(db), "{ctx}: invalidate {db}");
                }
                _ => {
                    assert_eq!(lru.clear(), reference.map.len(), "{ctx}: clear");
                    reference.map.clear();
                    reference.resident = 0;
                }
            }
            assert_eq!(lru.len(), reference.map.len(), "{ctx}: len");
            let weight = budget.map_or(reference.map.len(), |_| reference.resident);
            assert_eq!(lru.weight(), weight, "{ctx}: weight");
        }
    }

    #[test]
    fn entry_count_policy_matches_the_min_tick_scan() {
        for capacity in [0, 1, 2, 64] {
            for seed in 0..8 {
                run_against_reference(seed, capacity, None, 4_000);
            }
        }
    }

    #[test]
    fn byte_budget_policy_matches_the_min_tick_scan() {
        // Entries weigh up to half the budget, so one insert can need
        // several victims.
        for budget in [1, 7, 40, 500] {
            for seed in 0..8 {
                run_against_reference(seed, 16, Some(budget), 4_000);
            }
        }
    }

    #[test]
    fn eviction_takes_the_least_recently_touched() {
        let mut lru: Lru<&str, u32> = Lru::new();
        lru.insert("a", 1, 1);
        lru.insert("b", 2, 1);
        lru.insert("c", 3, 1);
        assert_eq!(lru.get(&"a"), Some(&1)); // a is now the most recent
        assert_eq!(lru.get_if(&"b", |_| false), None, "a rejected get does not refresh");
        assert_eq!(lru.pop_lru(), Some(("b", 2)));
        assert_eq!(lru.pop_lru(), Some(("c", 3)));
        assert_eq!(lru.pop_lru(), Some(("a", 1)));
        assert_eq!(lru.pop_lru(), None);
        assert!(lru.is_empty());
    }

    #[test]
    fn weights_follow_overwrites_and_removals() {
        let mut lru: Lru<u32, ()> = Lru::new();
        lru.insert(1, (), 10);
        lru.insert(2, (), 5);
        assert_eq!(lru.weight(), 15);
        assert_eq!(lru.insert(1, (), 3), Some(()), "overwrite returns the old value");
        assert_eq!(lru.weight(), 8);
        let evicted = lru.make_room(4, 10);
        assert_eq!(evicted, vec![(2, ())], "2 is least recent after 1's overwrite");
        assert_eq!(lru.weight(), 3);
        assert_eq!(lru.retain(|&k, _| k != 1), 1);
        assert_eq!((lru.len(), lru.weight()), (0, 0));
        // Freed slots are reused.
        lru.insert(7, (), 1);
        assert_eq!(lru.slots.len(), 2);
    }

    #[test]
    fn a_poisoned_lock_recovers_empty() {
        let shared: std::sync::Arc<SharedLru<u32, u32>> = Default::default();
        shared.lock().insert(1, 1, 1);
        let poisoner = {
            let shared = std::sync::Arc::clone(&shared);
            std::thread::spawn(move || {
                let _guard = shared.lock();
                panic!("a holder died mid-update");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(shared.is_poisoned());
        assert!(shared.lock().is_empty(), "suspect contents dropped");
        assert!(!shared.is_poisoned(), "poison cleared on recovery");
        assert_eq!(shared.recovered(), 1);
        shared.lock().insert(2, 2, 1);
        assert_eq!(shared.lock().get(&2), Some(&2));
    }
}
