//! Warm-cache patching: route only the delta through a cached entry.
//!
//! When a relation mutates, its cached [`RelationIndex`] entries are not
//! discarded — the delta batch is tiny compared to the base, and the base's
//! shuffled placement is fully determined by the entry's own
//! [`IndexKey`]: the share vector is indexed by attribute id and the induced
//! order fixes the trie layout. So each entry can be brought forward *in
//! place*: permute the insert/tombstone runs into the entry's induced order,
//! route them with the same coordinate arithmetic the original shuffle used,
//! and per worker merge the (sorted) delta into the fragment's re-emitted
//! sorted run — a linear merge + linear trie rebuild, no global sort, no
//! communication round. The result is republished under the relation's new
//! delta sequence, so the very next query hits warm.
//!
//! Entries from an older stats epoch are dropped instead. Entries more than
//! one sequence behind are also dropped: only the current batch's delta is
//! in hand, so an entry that missed an earlier batch (a query serving an old
//! snapshot can publish its index after later mutations ran) cannot be
//! brought forward — only `delta_seq == new_seq - 1` entries are patchable.

use crate::cache::{IndexKey, IndexScope, RelationIndex};
use crate::plan::HCubePlan;
use adj_relational::{Relation, Schema, Trie, Value};
use std::sync::Arc;

/// What [`patch_relation_indexes`] did to one relation's cached entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchOutcome {
    /// Entries brought forward to the new delta sequence.
    pub patched: usize,
    /// Entries discarded because they belong to an older stats epoch or lag
    /// the current sequence by more than one batch.
    pub dropped: usize,
    /// Delta tuple copies (inserts and tombstones) delivered across all
    /// patched entries — the total routing work this patch pass did.
    pub tuples_routed: u64,
}

/// Takes every cached index entry of `relation` (in `scope`'s database),
/// routes the delta runs into the reconstructible ones, and republishes
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
            scope.cache.insert_index(key, entry);
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
        match patch_one(&key, &entry, inserts, deletes, new_seq) {
            Some((new_key, new_entry, routed)) => {
                scope.cache.insert_index(new_key, new_entry);
                out.patched += 1;
                out.tuples_routed += routed;
            }
            None => out.dropped += 1,
        }
    }
    out
}

/// Routes the delta into one entry; `None` when the delta does not fit the
/// entry's induced layout (schema changed under the relation name).
fn patch_one(
    key: &IndexKey,
    entry: &RelationIndex,
    inserts: &Relation,
    deletes: &Relation,
    new_seq: u64,
) -> Option<(IndexKey, Arc<RelationIndex>, u64)> {
    let induced = Schema::new(key.induced.clone()).ok()?;
    let ins_p = inserts.permute(induced.attrs()).ok()?;
    let del_p = deletes.permute(induced.attrs()).ok()?;
    let plan = HCubePlan::new(key.share.clone(), key.num_workers);

    // Routed exactly as the original shuffle: fixed coordinates on the
    // relation's own attributes, every coordinate of the rest. Insert and
    // tombstone deliveries are counted apart: both are routing work, but
    // only inserts grow the fragments, so only they feed the entry's
    // tuples/messages shuffle-savings credit.
    let route = |rel: &Relation| -> (Vec<Vec<Value>>, u64) {
        let mut per_worker: Vec<Vec<Value>> = vec![Vec::new(); key.num_workers];
        let mut dests = Vec::new();
        let mut routed: u64 = 0;
        for row in rel.rows() {
            plan.route_workers(&induced, row, &mut dests);
            for &w in &dests {
                per_worker[w].extend_from_slice(row);
                routed += 1;
            }
        }
        (per_worker, routed)
    };
    let (ins_w, ins_routed) = route(&ins_p);
    let (del_w, del_routed) = route(&del_p);

    let mut tries: Vec<Arc<Trie>> = Vec::with_capacity(key.num_workers);
    for (w, old) in entry.tries.iter().enumerate() {
        if ins_w[w].is_empty() && del_w[w].is_empty() {
            tries.push(Arc::clone(old)); // untouched fragment rides along
            continue;
        }
        let ins_rel = Relation::from_flat(induced.clone(), ins_w[w].clone()).ok()?;
        let del_rel = Relation::from_flat(induced.clone(), del_w[w].clone()).ok()?;
        let merged = Relation::merge_sorted(&[&old.to_relation(), &ins_rel])
            .and_then(|u| u.subtract(&del_rel))
            .ok()?;
        tries.push(Arc::new(Trie::build(&merged)));
    }
    let new_key = IndexKey { delta_seq: new_seq, ..key.clone() };
    let new_entry =
        Arc::new(RelationIndex::new(tries, entry.tuples + ins_routed, entry.messages + ins_routed));
    Some((new_key, new_entry, ins_routed + del_routed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::IndexCache;

    fn rel(ids: &[u32], rows: &[&[Value]]) -> Relation {
        Relation::from_rows(Schema::from_ids(ids), rows).unwrap()
    }

    /// Reference: route a full relation the way the plain shuffle does and
    /// build per-worker tries.
    fn fragments(r: &Relation, plan: &HCubePlan) -> Vec<Arc<Trie>> {
        let mut per_worker: Vec<Vec<Value>> = vec![Vec::new(); plan.num_workers()];
        let mut dests = Vec::new();
        for row in r.rows() {
            plan.route_workers(r.schema(), row, &mut dests);
            for &w in &dests {
                per_worker[w].extend_from_slice(row);
            }
        }
        per_worker
            .into_iter()
            .map(|buf| {
                Arc::new(Trie::build(&Relation::from_flat(r.schema().clone(), buf).unwrap()))
            })
            .collect()
    }

    fn key_for(r: &Relation, plan: &HCubePlan, delta_seq: u64) -> IndexKey {
        IndexKey {
            db_tag: 1,
            epoch: 0,
            relation: "R".into(),
            induced: r.schema().attrs().to_vec(),
            share: plan.share().to_vec(),
            num_workers: plan.num_workers(),
            delta_seq,
        }
    }

    #[test]
    fn patched_fragments_match_fresh_shuffle_of_effective_relation() {
        let base =
            rel(&[0, 1], &[&[1, 2], &[2, 3], &[3, 4], &[4, 5], &[5, 6], &[6, 7], &[7, 8], &[8, 9]]);
        let plan = HCubePlan::new(vec![2, 2], 4);
        let cache = IndexCache::new(1 << 20);
        cache.insert_index(
            key_for(&base, &plan, 0),
            Arc::new(RelationIndex::new(fragments(&base, &plan), 8, 8)),
        );

        let inserts = rel(&[0, 1], &[&[9, 1], &[1, 9]]);
        let deletes = rel(&[0, 1], &[&[2, 3], &[42, 42]]); // one real, one missing
        let versions = vec![("R".to_string(), 1u64)];
        let scope = IndexScope { cache: &cache, db_tag: 1, epoch: 0, versions: &versions };
        let out = patch_relation_indexes(&scope, "R", &inserts, &deletes);
        assert_eq!((out.patched, out.dropped), (1, 0));
        assert!(out.tuples_routed >= 4);
        // Both attrs are share dimensions, so every row lands on exactly
        // one worker: 2 insert + 2 delete deliveries were routed, but only
        // the inserts may feed the entry's shuffle-savings credit.
        let patched_stats = cache.get_index(&key_for(&base, &plan, 1)).expect("patched entry");
        assert_eq!(patched_stats.tuples, 8 + 2, "delete routing must not inflate tuples");
        assert_eq!(patched_stats.messages, 8 + 2);

        // old sequence no longer matches; new one does
        assert!(cache.get_index(&key_for(&base, &plan, 0)).is_none());
        let patched = cache.get_index(&key_for(&base, &plan, 1)).expect("patched entry");

        let effective =
            Relation::merge_sorted(&[&base, &inserts]).unwrap().subtract(&deletes).unwrap();
        let expected = fragments(&effective, &plan);
        for (w, (got, want)) in patched.tries.iter().zip(&expected).enumerate() {
            assert_eq!(got.to_relation(), want.to_relation(), "worker {w} fragment diverged");
        }
        assert!(patched.bytes > 0);
    }

    #[test]
    fn stale_epoch_entries_drop() {
        let base = rel(&[0, 1], &[&[1, 2], &[2, 3]]);
        let plan = HCubePlan::new(vec![2, 2], 4);
        let cache = IndexCache::new(1 << 20);
        let mut stale = key_for(&base, &plan, 0);
        stale.epoch = 7;
        cache.insert_index(stale, Arc::new(RelationIndex::new(fragments(&base, &plan), 2, 2)));

        let none = Relation::empty(Schema::from_ids(&[0, 1]));
        let ins = rel(&[0, 1], &[&[5, 5]]);
        let versions = vec![("R".to_string(), 1u64)];
        let scope = IndexScope { cache: &cache, db_tag: 1, epoch: 0, versions: &versions };
        let out = patch_relation_indexes(&scope, "R", &ins, &none);
        assert_eq!((out.patched, out.dropped), (0, 1));
        assert!(cache.is_empty(), "a stale-epoch entry must not survive");
    }

    #[test]
    fn entries_lagging_more_than_one_batch_drop() {
        let base = rel(&[0, 1], &[&[1, 2], &[2, 3], &[3, 4], &[4, 5]]);
        let plan = HCubePlan::new(vec![2, 2], 4);
        let cache = IndexCache::new(1 << 20);
        // A query serving the seq-0 snapshot published its entry *after*
        // batches 1 and 2 ran (lookup clones the Arc outside the registry
        // lock). Patching it with batch 3's delta alone would silently
        // lose the intermediate batches — it must drop instead.
        cache.insert_index(
            key_for(&base, &plan, 0),
            Arc::new(RelationIndex::new(fragments(&base, &plan), 4, 4)),
        );
        // The entry one behind the new sequence is patchable as usual.
        cache.insert_index(
            key_for(&base, &plan, 2),
            Arc::new(RelationIndex::new(fragments(&base, &plan), 4, 4)),
        );

        let ins = rel(&[0, 1], &[&[9, 9]]);
        let none = Relation::empty(Schema::from_ids(&[0, 1]));
        let versions = vec![("R".to_string(), 3u64)];
        let scope = IndexScope { cache: &cache, db_tag: 1, epoch: 0, versions: &versions };
        let out = patch_relation_indexes(&scope, "R", &ins, &none);
        assert_eq!((out.patched, out.dropped), (1, 1));
        assert!(cache.get_index(&key_for(&base, &plan, 0)).is_none(), "stale entry must drop");

        let patched = cache.get_index(&key_for(&base, &plan, 3)).expect("current entry patched");
        let effective = Relation::merge_sorted(&[&base, &ins]).unwrap();
        for (w, (got, want)) in patched.tries.iter().zip(&fragments(&effective, &plan)).enumerate()
        {
            assert_eq!(got.to_relation(), want.to_relation(), "worker {w} fragment diverged");
        }
    }

    #[test]
    fn untouched_workers_share_the_old_trie() {
        // Share (4,1) on 4 workers: each tuple lands on exactly one worker,
        // so a one-row delta rebuilds exactly one fragment.
        let base = rel(&[0, 1], &[&[1, 2], &[2, 3], &[3, 4], &[4, 5], &[5, 6], &[6, 7]]);
        let plan = HCubePlan::new(vec![4, 1], 4);
        let cache = IndexCache::new(1 << 20);
        let frags = fragments(&base, &plan);
        cache.insert_index(
            key_for(&base, &plan, 0),
            Arc::new(RelationIndex::new(frags.clone(), 6, 6)),
        );
        let ins = rel(&[0, 1], &[&[1, 99]]);
        let none = Relation::empty(Schema::from_ids(&[0, 1]));
        let versions = vec![("R".to_string(), 1u64)];
        let scope = IndexScope { cache: &cache, db_tag: 1, epoch: 0, versions: &versions };
        let out = patch_relation_indexes(&scope, "R", &ins, &none);
        assert_eq!(out.patched, 1);
        let patched = cache.get_index(&key_for(&base, &plan, 1)).unwrap();
        let rebuilt: Vec<bool> =
            patched.tries.iter().zip(&frags).map(|(a, b)| !Arc::ptr_eq(a, b)).collect();
        assert_eq!(rebuilt.iter().filter(|&&r| r).count(), 1, "exactly one fragment rebuilt");
    }
}
