//! CacheTrieJoin-style Leapfrog (the HCubeJ+Cache baseline, ref. \[28\]).
//!
//! The candidate set `val(t_i → A_{i+1})` depends only on the *relevant*
//! prefix of the binding: the values of attributes that co-occur (in some
//! participating relation) with `A_{i+1}`. When irrelevant attributes vary,
//! the same intersection is recomputed — caching it keyed by the relevant
//! prefix skips that work. The cache is capacity-bounded; as the paper notes,
//! HCube's memory appetite leaves little room for the cache on big inputs,
//! which is exactly why HCubeJ+Cache loses to ADJ on LJ/OK (Sec. VII-C). The
//! capacity knob lets the experiments reproduce that effect.

use crate::counters::JoinCounters;
use crate::join::validate_tries;
use adj_relational::hash::FxHashMap;
use adj_relational::intersect::leapfrog_intersect;
use adj_relational::{Attr, Result, Trie, TrieCursor, Value};
use std::borrow::Borrow;
use std::rc::Rc;

/// A Leapfrog join with per-level intersection caching. Like
/// [`crate::LeapfrogJoin`], the trie handle type `T` is anything that
/// borrows a [`Trie`] (`&Trie` per-query locals or `Arc<Trie>` cache
/// handles).
pub struct CachedJoin<T: Borrow<Trie>> {
    order: Vec<Attr>,
    tries: Vec<T>,
    participants: Vec<Vec<usize>>,
    /// For each level: positions (in `order`) of the earlier attributes the
    /// level's candidate set actually depends on.
    relevant_prefix: Vec<Vec<usize>>,
    /// Maximum number of cached values across all entries (0 = unbounded).
    capacity_values: usize,
}

impl<T: Borrow<Trie>> CachedJoin<T> {
    /// Creates a cached join; `capacity_values` bounds the total number of
    /// cached candidate values (0 = unlimited).
    pub fn new(order: &[Attr], tries: Vec<T>, capacity_values: usize) -> Result<Self> {
        // Shared validation with LeapfrogJoin — no throwaway join is built.
        let participants = validate_tries(order, &tries)?;
        let relevant_prefix = order
            .iter()
            .enumerate()
            .map(|(lvl, _)| {
                let mut rel = Vec::new();
                for (earlier, &ea) in order.iter().enumerate().take(lvl) {
                    if participants[lvl].iter().any(|&p| tries[p].borrow().schema().contains(ea)) {
                        rel.push(earlier);
                    }
                }
                rel
            })
            .collect();
        Ok(CachedJoin {
            order: order.to_vec(),
            tries,
            participants,
            relevant_prefix,
            capacity_values,
        })
    }

    /// Runs the join, returning `(output count, counters)`.
    pub fn count(&self) -> (u64, JoinCounters) {
        let mut counters = JoinCounters::new(self.order.len());
        if self.tries.iter().any(|t| t.borrow().tuples() == 0) {
            return (0, counters);
        }
        let mut cursors: Vec<TrieCursor<'_>> =
            self.tries.iter().map(|t| t.borrow().cursor()).collect();
        let mut binding = vec![0 as Value; self.order.len()];
        let mut cache: Vec<FxHashMap<Vec<Value>, Rc<Vec<Value>>>> =
            (0..self.order.len()).map(|_| FxHashMap::default()).collect();
        let mut cache_size = 0usize;
        self.recurse(0, &mut cursors, &mut binding, &mut counters, &mut cache, &mut cache_size);
        (counters.output_tuples, counters)
    }

    #[allow(clippy::too_many_arguments)]
    fn recurse(
        &self,
        level: usize,
        cursors: &mut [TrieCursor<'_>],
        binding: &mut Vec<Value>,
        counters: &mut JoinCounters,
        cache: &mut [FxHashMap<Vec<Value>, Rc<Vec<Value>>>],
        cache_size: &mut usize,
    ) {
        let ps = &self.participants[level];
        let last = level + 1 == self.order.len();
        let key: Vec<Value> = self.relevant_prefix[level].iter().map(|&i| binding[i]).collect();

        // Cache fast path at the LAST level: the candidate count is the
        // number of results for this prefix; no descent needed.
        if last {
            if let Some(vals) = cache[level].get(&key) {
                counters.cache_hits += 1;
                counters.tuples_per_level[level] += vals.len() as u64;
                counters.output_tuples += vals.len() as u64;
                return;
            }
        }

        let mut opened = 0usize;
        let mut ok = true;
        for &p in ps {
            if cursors[p].open() {
                opened += 1;
            } else {
                ok = false;
                break;
            }
        }
        if ok {
            // Interior levels can reuse a cached candidate list to skip the
            // intersection (seeks are still needed to descend).
            let vals: Rc<Vec<Value>> = if let Some(v) = cache[level].get(&key) {
                counters.cache_hits += 1;
                v.clone()
            } else {
                counters.cache_misses += 1;
                let runs: Vec<&[Value]> = ps.iter().map(|&p| cursors[p].run()).collect();
                let mut out = Vec::new();
                counters.intersect_ops += leapfrog_intersect(&runs, &mut out);
                let rc = Rc::new(out);
                if self.capacity_values == 0 || *cache_size + rc.len() <= self.capacity_values {
                    *cache_size += rc.len();
                    cache[level].insert(key, rc.clone());
                }
                rc
            };
            counters.tuples_per_level[level] += vals.len() as u64;
            if last {
                counters.output_tuples += vals.len() as u64;
            } else {
                for &v in vals.iter() {
                    for &p in ps {
                        let hit = cursors[p].seek(v);
                        debug_assert!(hit);
                    }
                    binding[level] = v;
                    self.recurse(level + 1, cursors, binding, counters, cache, cache_size);
                }
            }
        }
        for &p in ps.iter().take(opened) {
            cursors[p].up();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::LeapfrogJoin;
    use crate::reference::plain_leapfrog;
    use adj_relational::Relation;

    fn ord(ids: &[u32]) -> Vec<Attr> {
        ids.iter().map(|&i| Attr(i)).collect()
    }

    /// Q4-like query (5-cycle + chord) on a small graph: enough structure
    /// for the cache to matter.
    fn q4_tries(order: &[Attr]) -> Vec<Trie> {
        let edges: Vec<(Value, Value)> = (0..60u32)
            .flat_map(|i| vec![(i % 23, (i * 5 + 2) % 23), ((i * 3) % 23, (i * 7 + 1) % 23)])
            .collect();
        let schemas = [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4)];
        schemas
            .iter()
            .map(|&(x, y)| {
                Relation::from_pairs(Attr(x), Attr(y), &edges).trie_under_order(order).unwrap()
            })
            .collect()
    }

    #[test]
    fn cached_count_matches_plain() {
        let o = ord(&[0, 1, 2, 3, 4]);
        let tries = q4_tries(&o);
        let plain = LeapfrogJoin::new(&o, tries.iter().collect()).unwrap();
        let cached = CachedJoin::new(&o, tries.iter().collect(), 0).unwrap();
        let (n_plain, _) = plain.count();
        let (n_cached, counters) = cached.count();
        assert_eq!(n_plain, n_cached);
        assert!(counters.cache_hits > 0, "cache should hit on cyclic queries");
    }

    #[test]
    fn cache_reduces_intersection_work() {
        let o = ord(&[0, 1, 2, 3, 4]);
        let tries = q4_tries(&o);
        let cached = CachedJoin::new(&o, tries.iter().collect(), 0).unwrap();
        let (_, cc) = cached.count();
        // Measured against the kernel the cache wraps: a join that dances
        // at every level.
        let dance = plain_leapfrog(&tries, &o, &mut |_, _, _, _| {});
        assert!(cc.intersect_ops < dance, "cached {} vs plain dance {dance}", cc.intersect_ops);
    }

    #[test]
    fn tiny_capacity_still_correct() {
        let o = ord(&[0, 1, 2, 3, 4]);
        let tries = q4_tries(&o);
        let unbounded = CachedJoin::new(&o, tries.iter().collect(), 0).unwrap();
        let bounded = CachedJoin::new(&o, tries.iter().collect(), 8).unwrap();
        let (n0, c0) = unbounded.count();
        let (n1, c1) = bounded.count();
        assert_eq!(n0, n1);
        assert!(c1.cache_hits <= c0.cache_hits);
    }

    #[test]
    fn triangle_has_fully_relevant_prefixes() {
        // In a triangle every earlier attribute is relevant at every level,
        // so the cache never hits (keys are unique) — matching the paper's
        // note that caching "helps little" when attributes are tightly
        // constrained.
        let edges: Vec<(Value, Value)> = (0..30u32).map(|i| (i % 11, (i * 3 + 1) % 11)).collect();
        let o = ord(&[0, 1, 2]);
        let tries: Vec<Trie> = [(0u32, 1u32), (1, 2), (0, 2)]
            .iter()
            .map(|&(x, y)| {
                Relation::from_pairs(Attr(x), Attr(y), &edges).trie_under_order(&o).unwrap()
            })
            .collect();
        let cached = CachedJoin::new(&o, tries.iter().collect(), 0).unwrap();
        let plain = LeapfrogJoin::new(&o, tries.iter().collect()).unwrap();
        let (n_c, counters) = cached.count();
        assert_eq!(n_c, plain.count().0);
        assert_eq!(counters.cache_hits, 0);
    }
}
