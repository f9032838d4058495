//! The recency index [`Cache`](crate::cache::Cache) evicts by: weighted
//! entries in exact least-recently-used order, with the insert rule and the
//! poisoning rule.
//!
//! Entries live in a slab threaded by an intrusive doubly linked list in
//! recency order (head = most recently touched, tail = least), and a hash
//! index maps each key to its slot. A hit relinks its slot to the head, an
//! insert pushes one there, and eviction pops the tail, all in O(1). The
//! victim is therefore always the entry touched longest ago — exactly what
//! a scan for the smallest per-entry last-use tick picks — without visiting
//! any other entry.

use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
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

/// Weighted entries in exact LRU order, their keys hashed by `S`. Not
/// thread-safe: the cache holds it in a mutex locked through [`Lru::lock`].
pub(crate) struct Lru<K, V, S> {
    index: HashMap<K, u32, S>,
    slots: Vec<Slot<K, V>>,
    free: Vec<u32>,
    /// Most recently touched slot.
    head: u32,
    /// Least recently touched slot: the next victim.
    tail: u32,
    weight: usize,
}

impl<K: Hash + Eq + Clone, V, S: BuildHasher + Default> Lru<K, V, S> {
    pub(crate) fn new() -> Self {
        Lru {
            index: HashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            weight: 0,
        }
    }

    /// Locks `m`. A panic while the lock was held may have left the list
    /// half-relinked, so if the lock is poisoned every entry is dropped and
    /// the poison cleared first. Returns the guard and how many entries
    /// recovery dropped (0 when the lock was sound).
    pub(crate) fn lock(m: &Mutex<Self>) -> (MutexGuard<'_, Self>, usize) {
        match m.lock() {
            Ok(guard) => (guard, 0),
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                let dropped = guard.clear();
                m.clear_poison();
                (guard, dropped)
            }
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Sum of the entries' weights.
    pub(crate) fn weight(&self) -> usize {
        self.weight
    }

    /// Every entry with its weight, most recent first.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&K, &V, usize)> {
        let mut slot = self.head;
        std::iter::from_fn(move || {
            let s = self.slots.get(slot as usize)?;
            slot = s.next;
            let node = s.node.as_ref().expect("linked slot is live");
            Some((&node.key, &node.value, node.weight))
        })
    }

    /// What `read` makes of the value under `key`. A value `read` rejects
    /// (`None`) is a miss and keeps its place; otherwise the entry becomes
    /// the most recent.
    pub(crate) fn get_if<R>(&mut self, key: &K, read: impl FnOnce(&V) -> Option<R>) -> Option<R> {
        let slot = *self.index.get(key)?;
        let got = read(&self.node(slot).value)?;
        self.touch(slot);
        Some(got)
    }

    /// The insert rule. An entry heavier than `capacity` is not stored, and
    /// nothing is evicted for it. Otherwise `value` is stored under `key` at
    /// `weight` as the most recent entry, replacing whatever sat there, and
    /// the least-recent entries *other than the key itself* go to `evict`,
    /// oldest first, until the total weight fits; republishing a resident
    /// key never evicts room it already holds. Returns whether the key was
    /// new.
    pub(crate) fn insert(
        &mut self,
        key: K,
        value: V,
        weight: usize,
        capacity: usize,
        mut evict: impl FnMut((K, V)),
    ) -> bool {
        if weight > capacity {
            return false;
        }
        let fresh = self.put(key, value, weight);
        // The key is now the most recent entry and fits alone, so the
        // least-recent entries go before it ever could.
        while self.weight > capacity {
            evict(self.remove_slot(self.tail));
        }
        fresh
    }

    /// Removes and returns every entry `pick` selects, in the hash index's
    /// iteration order.
    pub(crate) fn take(&mut self, mut pick: impl FnMut(&K, &V) -> bool) -> Vec<(K, V)> {
        let picked: Vec<u32> = self
            .index
            .values()
            .copied()
            .filter(|&slot| {
                let node = self.node(slot);
                pick(&node.key, &node.value)
            })
            .collect();
        picked.into_iter().map(|slot| self.remove_slot(slot)).collect()
    }

    /// Drops every entry and returns how many went.
    pub(crate) fn clear(&mut self) -> usize {
        let dropped = self.index.len();
        *self = Lru::new();
        dropped
    }

    /// Stores `value` under `key` at `weight` as the most recent entry and
    /// returns whether the key was new. Evicts nothing.
    fn put(&mut self, key: K, value: V, weight: usize) -> bool {
        match self.index.entry(key) {
            MapEntry::Occupied(o) => {
                let slot = *o.get();
                self.touch(slot);
                let node = self.slots[slot as usize].node.as_mut().expect("indexed slot is live");
                node.value = value;
                self.weight = self.weight - std::mem::replace(&mut node.weight, weight) + weight;
                false
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
                true
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::RandomState;

    /// A cached value: which database it belongs to (for `take`) and which
    /// identity it answers for (for colliding-identity gets).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Val {
        db: u8,
        ident: u8,
    }

    type TestLru = Lru<u64, Val, RandomState>;

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

        /// The insert rule, spelled out: the key's own old weight is not
        /// counted against the new one, and the victims are the smallest
        /// ticks among the other keys.
        fn insert(
            &mut self,
            key: u64,
            val: Val,
            weight: usize,
            capacity: usize,
        ) -> (bool, Vec<u64>) {
            if weight > capacity {
                return (false, Vec::new());
            }
            let old = self.map.remove(&key);
            if let Some((_, _, old_weight)) = old {
                self.resident -= old_weight;
            }
            let mut victims = Vec::new();
            while self.resident + weight > capacity {
                let (&lru, _) = self.map.iter().min_by_key(|(_, e)| e.1).expect("a victim");
                self.resident -= self.map.remove(&lru).expect("present").2;
                victims.push(lru);
            }
            self.tick += 1;
            self.map.insert(key, (val, self.tick, weight));
            self.resident += weight;
            (old.is_none(), victims)
        }

        fn take_db(&mut self, db: u8) -> usize {
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

    /// One random op sequence against both structures; every step's hit,
    /// victims, `len` and weight must agree. `weigh` draws each inserted
    /// entry's weight.
    fn run_against_reference(
        seed: u64,
        capacity: usize,
        steps: usize,
        weigh: impl Fn(&mut Rng) -> usize,
    ) {
        let mut rng = Rng(seed);
        let mut lru = TestLru::new();
        let mut reference = Reference::default();
        // Few enough keys that overwrites and re-gets are common.
        let keys = (capacity as u64 * 2).clamp(3, 96);
        for step in 0..steps {
            let key = rng.below(keys);
            let val = Val { db: rng.below(3) as u8, ident: rng.below(2) as u8 };
            let what = rng.below(100);
            let ctx = format!("seed {seed} capacity {capacity} step {step}");
            match what {
                // get, half the time for a colliding identity
                0..=44 => {
                    let ident = rng.below(2) as u8;
                    let got = lru.get_if(&key, |v| (v.ident == ident).then_some(())).is_some();
                    assert_eq!(got, reference.get(key, ident), "{ctx}: get {key}");
                }
                // insert or overwrite
                45..=93 => {
                    let weight = weigh(&mut rng);
                    let mut victims = Vec::new();
                    let fresh = lru.insert(key, val, weight, capacity, |(k, _)| victims.push(k));
                    let want = reference.insert(key, val, weight, capacity);
                    assert_eq!((fresh, victims), want, "{ctx}: insert {key} at weight {weight}");
                }
                94..=98 => {
                    let db = rng.below(3) as u8;
                    let got = lru.take(|_, v| v.db == db).len();
                    assert_eq!(got, reference.take_db(db), "{ctx}: take {db}");
                }
                _ => {
                    assert_eq!(lru.clear(), reference.map.len(), "{ctx}: clear");
                    reference.map.clear();
                    reference.resident = 0;
                }
            }
            assert_eq!(lru.len(), reference.map.len(), "{ctx}: len");
            assert_eq!(lru.weight(), reference.resident, "{ctx}: weight");
            let summed: usize = lru.entries().map(|(_, _, w)| w).sum();
            assert_eq!(summed, lru.weight(), "{ctx}: weight is the sum of the entries'");
        }
    }

    #[test]
    fn entry_count_policy_matches_the_min_tick_scan() {
        // An entry-count cache is a weight-1 budget.
        for capacity in [0, 1, 2, 64] {
            for seed in 0..8 {
                run_against_reference(seed, capacity, 4_000, |_| 1);
            }
        }
    }

    #[test]
    fn byte_budget_policy_matches_the_min_tick_scan() {
        // Entries weigh up to half the budget, so one insert can need
        // several victims; some weigh nothing and some more than the budget.
        for budget in [1, 7, 40, 500] {
            for seed in 0..8 {
                run_against_reference(seed, budget, 4_000, |rng| match rng.below(8) {
                    0 => 0,
                    1 => budget + 1,
                    _ => 1 + rng.below(budget as u64 / 2 + 2) as usize,
                });
            }
        }
    }

    #[test]
    fn eviction_takes_the_least_recently_touched() {
        let mut lru: Lru<&str, u32, RandomState> = Lru::new();
        let mut victims = Vec::new();
        for (key, value) in [("a", 1), ("b", 2), ("c", 3)] {
            lru.insert(key, value, 1, 3, |kv| victims.push(kv));
        }
        assert_eq!(lru.get_if(&"a", |&v| Some(v)), Some(1)); // a is now the most recent
        assert_eq!(lru.get_if(&"b", |_| None::<()>), None, "a rejected get does not refresh");
        let order: Vec<&str> = lru.entries().map(|(&k, _, _)| k).collect();
        assert_eq!(order, ["a", "c", "b"]);
        lru.insert("d", 4, 1, 3, |kv| victims.push(kv));
        lru.insert("e", 5, 2, 3, |kv| victims.push(kv));
        assert_eq!(victims, [("b", 2), ("c", 3), ("a", 1)], "oldest first");
        assert_eq!((lru.len(), lru.weight()), (2, 3));
    }

    #[test]
    fn weights_follow_overwrites_and_removals() {
        let mut lru: Lru<u32, (), RandomState> = Lru::new();
        let mut victims = Vec::new();
        assert!(lru.insert(1, (), 10, 20, |kv| victims.push(kv)));
        assert!(lru.insert(2, (), 5, 20, |kv| victims.push(kv)));
        assert_eq!(lru.weight(), 15);
        assert!(!lru.insert(1, (), 3, 20, |kv| victims.push(kv)), "an overwrite is not new");
        assert_eq!(lru.weight(), 8);
        // Republishing a resident key at a full budget evicts nothing: its
        // own weight is not counted twice.
        assert!(!lru.insert(1, (), 3, 8, |kv| victims.push(kv)));
        assert!(victims.is_empty() && lru.weight() == 8);
        lru.insert(3, (), 4, 10, |kv| victims.push(kv));
        assert_eq!(victims, [(2, ())], "2 is least recent after 1's overwrite");
        assert_eq!(lru.weight(), 7);
        assert!(!lru.insert(4, (), 11, 10, |kv| victims.push(kv)), "heavier than the budget");
        assert_eq!((lru.len(), lru.weight(), victims.len()), (2, 7, 1));
        assert_eq!(lru.take(|&k, _| k != 1).len(), 1);
        assert_eq!(lru.take(|_, _| true), [(1, ())]);
        assert_eq!((lru.len(), lru.weight()), (0, 0));
        // Freed slots are reused.
        lru.insert(7, (), 1, 10, |kv| victims.push(kv));
        assert_eq!(lru.slots.len(), 3);
    }

    #[test]
    fn a_poisoned_lock_recovers_empty() {
        let shared: std::sync::Arc<Mutex<Lru<u32, u32, RandomState>>> =
            std::sync::Arc::new(Mutex::new(Lru::new()));
        Lru::lock(&shared).0.insert(1, 1, 1, 4, drop);
        let poisoner = {
            let shared = std::sync::Arc::clone(&shared);
            std::thread::spawn(move || {
                let _guard = Lru::lock(&shared);
                panic!("a holder died mid-update");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(shared.is_poisoned());
        let (guard, dropped) = Lru::lock(&shared);
        assert_eq!((guard.len(), dropped), (0, 1), "suspect contents dropped");
        drop(guard);
        assert!(!shared.is_poisoned(), "poison cleared on recovery");
        assert_eq!(Lru::lock(&shared).1, 0, "a sound lock drops nothing");
        Lru::lock(&shared).0.insert(2, 2, 1, 4, drop);
        assert_eq!(Lru::lock(&shared).0.get_if(&2, |&v| Some(v)), Some(2));
    }
}
