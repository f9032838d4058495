//! Warm-cache patching: merge only the delta into a cached entry.
//!
//! When a relation mutates, its cached tries are not discarded — the delta batch is tiny compared to the base, and the
//! entry's own [`IndexKey`] fixes its layout: the induced order names the
//! trie's column order. So each entry can be brought forward *in place*:
//! permute the insert/tombstone runs into the entry's induced order and
//! merge the (sorted) delta into the trie's re-emitted sorted run — a
//! linear merge + linear trie rebuild, no global sort. The result is
//! republished under the relation's new delta sequence, so the very next
//! query hits warm.
//!
//! Entries from an older stats epoch are dropped instead. Entries more than
//! one sequence behind are also dropped: only the current batch's delta is
//! in hand, so an entry that missed an earlier batch (a query serving an old
//! snapshot can publish its index after later mutations ran) cannot be
//! brought forward — only `delta_seq == new_seq - 1` entries are patchable.

use crate::cache::{IndexKey, IndexScope};
use adj_relational::{Relation, Schema, Trie};
use std::sync::Arc;

/// What [`patch_relation_indexes`] did to one relation's cached entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchOutcome {
    /// Entries brought forward to the new delta sequence.
    pub patched: usize,
    /// Entries discarded because they belong to an older stats epoch or lag
    /// the current sequence by more than one batch.
    pub dropped: usize,
    /// Delta tuples (inserts and tombstones) merged across all patched
    /// entries — the total merge work this patch pass did.
    pub tuples_routed: u64,
}

/// Takes every cached index entry of `relation` (in `scope`'s database),
/// merges the delta runs into the reconstructible ones, and republishes
/// them under the relation's current delta sequence in `scope.versions`.
///
/// `inserts` and `deletes` carry the *batch* delta in the relation's own
/// schema; rows in `deletes` absent from a fragment are ignored (tombstone
/// of a missing row), rows in `inserts` already present are absorbed.
pub fn patch_relation_indexes(
    scope: &IndexScope<'_>,
    relation: &str,
    inserts: &Relation,
    deletes: &Relation,
) -> PatchOutcome {
    let mut out = PatchOutcome::default();
    let new_seq = scope.delta_seq_for(relation);
    for (key, entry) in scope.cache.take_indexes_for(scope.db_tag, relation) {
        if key.epoch != scope.epoch {
            out.dropped += 1;
            continue;
        }
        if key.delta_seq == new_seq {
            // Already current (idempotent re-patch); keep it untouched.
            scope.cache.store().insert(key, entry);
            continue;
        }
        if new_seq == 0 || key.delta_seq != new_seq - 1 {
            // The entry skipped at least one batch (e.g. a query over an
            // old snapshot published it after later mutations ran). Only
            // the current batch's delta is in hand, so routing it in
            // would silently lose the intermediate batches — drop.
            out.dropped += 1;
            continue;
        }
        match patch_one(&key, &entry, inserts, deletes) {
            Some((trie, merged)) => {
                scope.cache.store().insert(IndexKey { delta_seq: new_seq, ..key }, trie);
                out.patched += 1;
                out.tuples_routed += merged;
            }
            None => out.dropped += 1,
        }
    }
    out
}

/// Merges the delta into one entry's trie, returning the patched trie and
/// the delta tuples merged; `None` when the delta does not fit the entry's
/// induced layout (schema changed under the relation name).
fn patch_one(
    key: &IndexKey,
    trie: &Trie,
    inserts: &Relation,
    deletes: &Relation,
) -> Option<(Arc<Trie>, u64)> {
    let induced = Schema::new(key.induced.clone()).ok()?;
    let ins = inserts.permute(induced.attrs()).ok()?;
    let del = deletes.permute(induced.attrs()).ok()?;
    // Each copy of the relation is dropped as soon as the next one exists.
    let mut merged = trie.to_relation();
    if !ins.is_empty() {
        merged = Relation::merge_sorted(&[&merged, &ins]).ok()?;
    }
    if !del.is_empty() {
        merged = merged.subtract(&del).ok()?;
    }
    let trie = Trie::build(&merged);
    Some((Arc::new(trie), (ins.len() + del.len()) as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::IndexCache;
    use adj_relational::Value;

    fn put(cache: &IndexCache, key: IndexKey, r: &Relation) {
        cache.store().insert(key, Arc::new(Trie::build(r)));
    }

    fn get(cache: &IndexCache, key: IndexKey) -> Option<Arc<Trie>> {
        cache.store().get_if(&key, |t| Some(Arc::clone(t)))
    }

    fn rel(ids: &[u32], rows: &[&[Value]]) -> Relation {
        Relation::from_rows(Schema::from_ids(ids), rows).unwrap()
    }

    fn key_for(r: &Relation, delta_seq: u64) -> IndexKey {
        IndexKey {
            db_tag: 1,
            epoch: 0,
            relation: "R".into(),
            induced: r.schema().attrs().to_vec(),
            delta_seq,
        }
    }

    #[test]
    fn patched_fragments_match_fresh_shuffle_of_effective_relation() {
        let base =
            rel(&[0, 1], &[&[1, 2], &[2, 3], &[3, 4], &[4, 5], &[5, 6], &[6, 7], &[7, 8], &[8, 9]]);
        let cache = IndexCache::new(1 << 20);
        put(&cache, key_for(&base, 0), &base);

        let inserts = rel(&[0, 1], &[&[9, 1], &[1, 9]]);
        let deletes = rel(&[0, 1], &[&[2, 3], &[42, 42]]); // one real, one missing
        let versions = vec![("R".to_string(), 1u64)];
        let scope = IndexScope { cache: &cache, db_tag: 1, epoch: 0, versions: &versions };
        let out = patch_relation_indexes(&scope, "R", &inserts, &deletes);
        assert_eq!((out.patched, out.dropped, out.tuples_routed), (1, 0, 4));

        // old sequence no longer matches; new one does
        assert!(get(&cache, key_for(&base, 0)).is_none());
        let patched = get(&cache, key_for(&base, 1)).expect("patched entry");
        let effective =
            Relation::merge_sorted(&[&base, &inserts]).unwrap().subtract(&deletes).unwrap();
        assert_eq!(patched.to_relation(), effective, "the patched trie diverged");
    }

    #[test]
    fn a_reordered_entry_is_patched_in_its_own_order() {
        // The same relation read as `b → a` has an entry of its own; the
        // delta is merged in that order.
        let base = rel(&[0, 1], &[&[1, 2], &[2, 3], &[3, 1]]);
        let flipped = base.permute(&[adj_relational::Attr(1), adj_relational::Attr(0)]).unwrap();
        let cache = IndexCache::new(1 << 20);
        put(&cache, key_for(&flipped, 0), &flipped);
        let ins = rel(&[0, 1], &[&[5, 0]]);
        let none = Relation::empty(Schema::from_ids(&[0, 1]));
        let versions = vec![("R".to_string(), 1u64)];
        let scope = IndexScope { cache: &cache, db_tag: 1, epoch: 0, versions: &versions };
        assert_eq!(patch_relation_indexes(&scope, "R", &ins, &none).patched, 1);
        let patched = get(&cache, key_for(&flipped, 1)).expect("patched entry");
        let effective = Relation::merge_sorted(&[&base, &ins]).unwrap();
        assert_eq!(patched.to_relation(), effective.permute(flipped.schema().attrs()).unwrap());
    }

    #[test]
    fn stale_epoch_entries_drop() {
        let base = rel(&[0, 1], &[&[1, 2], &[2, 3]]);
        let cache = IndexCache::new(1 << 20);
        let mut stale = key_for(&base, 0);
        stale.epoch = 7;
        put(&cache, stale, &base);

        let none = Relation::empty(Schema::from_ids(&[0, 1]));
        let ins = rel(&[0, 1], &[&[5, 5]]);
        let versions = vec![("R".to_string(), 1u64)];
        let scope = IndexScope { cache: &cache, db_tag: 1, epoch: 0, versions: &versions };
        let out = patch_relation_indexes(&scope, "R", &ins, &none);
        assert_eq!((out.patched, out.dropped), (0, 1));
        assert_eq!(cache.stats().len, 0, "a stale-epoch entry must not survive");
    }

    #[test]
    fn entries_lagging_more_than_one_batch_drop() {
        let base = rel(&[0, 1], &[&[1, 2], &[2, 3], &[3, 4], &[4, 5]]);
        let cache = IndexCache::new(1 << 20);
        // A query serving the seq-0 snapshot published its entry *after*
        // batches 1 and 2 ran (lookup clones the Arc outside the registry
        // lock). Patching it with batch 3's delta alone would silently
        // lose the intermediate batches — it must drop instead.
        put(&cache, key_for(&base, 0), &base);
        // The entry one behind the new sequence is patchable as usual.
        put(&cache, key_for(&base, 2), &base);

        let ins = rel(&[0, 1], &[&[9, 9]]);
        let none = Relation::empty(Schema::from_ids(&[0, 1]));
        let versions = vec![("R".to_string(), 3u64)];
        let scope = IndexScope { cache: &cache, db_tag: 1, epoch: 0, versions: &versions };
        let out = patch_relation_indexes(&scope, "R", &ins, &none);
        assert_eq!((out.patched, out.dropped), (1, 1));
        assert!(get(&cache, key_for(&base, 0)).is_none(), "stale entry must drop");

        let patched = get(&cache, key_for(&base, 3)).expect("current entry patched");
        let effective = Relation::merge_sorted(&[&base, &ins]).unwrap();
        assert_eq!(patched.to_relation(), effective);
    }
}
