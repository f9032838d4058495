//! # adj-delta — delta-overlay mutation subsystem
//!
//! The engine's relations are immutable sorted runs — exactly the shape the
//! log-structured-merge tradition wants for a base level. This crate adds the
//! overlay: a [`DeltaRelation`] keeps an immutable **base** [`Relation`] plus
//! two sorted delta runs, **inserts** and **tombstones**, applied batch by
//! batch with a monotone sequence number per relation. The effective relation
//! is always `(base ∪ inserts) \ tombstones`; readers materialize it with
//! [`DeltaRelation::effective`].
//!
//! Compaction folds the overlay back into the base once it exceeds a
//! configurable fraction of the base ([`DeltaConfig`]). Compaction does not
//! change the effective contents, so sequence numbers — and everything keyed
//! by them (plan fingerprints, patched index-cache entries) — stay valid
//! across it.
//!
//! Batch semantics are set-oriented and deterministic: within one
//! [`MutationBatch`] all inserts apply before all deletes, inserting an
//! already-visible row is absorbed, and deleting a missing row is a no-op
//! (inert tombstones are trimmed so they never inflate the overlay).

use adj_relational::{Relation, Result, Schema, Value};

/// Knobs for overlay growth and compaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaConfig {
    /// Compact when overlay tuples (inserts + tombstones) exceed this
    /// fraction of the base tuple count.
    pub max_overlay_fraction: f64,
    /// Never compact while the overlay is smaller than this many tuples
    /// (prevents thrashing on tiny relations where any batch is a large
    /// fraction).
    pub min_overlay_tuples: usize,
}

impl Default for DeltaConfig {
    fn default() -> Self {
        DeltaConfig { max_overlay_fraction: 0.25, min_overlay_tuples: 256 }
    }
}

/// One batch of mutations against a named relation: inserts first, then
/// deletes. Rows must match the relation's arity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MutationBatch {
    pub relation: String,
    pub inserts: Vec<Vec<Value>>,
    pub deletes: Vec<Vec<Value>>,
}

impl MutationBatch {
    /// An empty batch against `relation`.
    pub fn new(relation: impl Into<String>) -> Self {
        MutationBatch { relation: relation.into(), inserts: Vec::new(), deletes: Vec::new() }
    }

    /// Adds an insert row (builder style).
    pub fn insert(mut self, row: &[Value]) -> Self {
        self.inserts.push(row.to_vec());
        self
    }

    /// Adds a delete row (builder style).
    pub fn delete(mut self, row: &[Value]) -> Self {
        self.deletes.push(row.to_vec());
        self
    }

    /// Whether the batch carries no rows at all.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Total rows carried (inserts + deletes).
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }
}

/// What a batch application did to one relation.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplyOutcome {
    /// Rows newly visible (inserts that were not already present and
    /// survived the batch's deletes).
    pub inserted: usize,
    /// Rows newly removed from the effective relation.
    pub deleted: usize,
    /// The relation's delta sequence after the batch (unchanged for an
    /// empty batch).
    pub seq: u64,
    /// The batch's insert rows, as a sorted relation over the schema.
    pub inserts: Relation,
    /// The batch's delete rows, as a sorted relation over the schema.
    pub deletes: Relation,
}

/// An immutable base relation plus sorted insert/tombstone overlay runs,
/// versioned by a per-relation batch sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRelation {
    base: Relation,
    inserts: Relation,
    tombstones: Relation,
    seq: u64,
}

impl DeltaRelation {
    /// Wraps `base` with an empty overlay at sequence 0.
    pub fn new(base: Relation) -> Self {
        let schema = base.schema().clone();
        DeltaRelation {
            base,
            inserts: Relation::empty(schema.clone()),
            tombstones: Relation::empty(schema),
            seq: 0,
        }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        self.base.schema()
    }

    /// Current delta sequence (bumped once per non-empty applied batch).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The immutable base run.
    pub fn base(&self) -> &Relation {
        &self.base
    }

    /// The sorted insert run.
    pub fn inserts(&self) -> &Relation {
        &self.inserts
    }

    /// The sorted tombstone run (only rows that actually suppress a base
    /// tuple — inert tombstones are trimmed on apply).
    pub fn tombstones(&self) -> &Relation {
        &self.tombstones
    }

    /// Overlay size in tuples (inserts + tombstones).
    pub fn overlay_tuples(&self) -> usize {
        self.inserts.len() + self.tombstones.len()
    }

    /// Materializes the effective relation `(base ∪ inserts) \ tombstones`.
    pub fn effective(&self) -> Relation {
        Relation::merge_sorted(&[&self.base, &self.inserts])
            .and_then(|u| u.subtract(&self.tombstones))
            .expect("overlay runs share the base schema")
    }

    /// Applies one batch (inserts first, then deletes). Returns what
    /// changed, with the batch's rows as sorted relations; an empty batch
    /// leaves the sequence untouched.
    pub fn apply(
        &mut self,
        inserts: &[Vec<Value>],
        deletes: &[Vec<Value>],
    ) -> Result<ApplyOutcome> {
        let sorted = |rows: &[Vec<Value>]| {
            let rows: Vec<&[Value]> = rows.iter().map(Vec::as_slice).collect();
            Relation::from_rows(self.base.schema().clone(), &rows)
        };
        let (inserts, deletes) = (sorted(inserts)?, sorted(deletes)?);
        let outcome = ApplyOutcome { inserted: 0, deleted: 0, seq: self.seq, inserts, deletes };
        if outcome.inserts.is_empty() && outcome.deletes.is_empty() {
            return Ok(outcome);
        }
        let (ins_delta, del_delta) = (&outcome.inserts, &outcome.deletes);

        // Count by membership against the pre-batch runs, instead of
        // materializing the effective relation before and after: a row the
        // batch deletes leaves iff it was visible, and one it inserts (and
        // does not delete) arrives iff it was not.
        let visible = |row: &[Value]| {
            (self.base.contains_row(row) || self.inserts.contains_row(row))
                && !self.tombstones.contains_row(row)
        };
        let deleted = del_delta.rows().filter(|row| visible(row)).count();
        let inserted =
            ins_delta.rows().filter(|row| !del_delta.contains_row(row) && !visible(row)).count();

        // Inserts: extend the insert run, resurrect any tombstoned rows.
        let merged_ins = Relation::merge_sorted(&[&self.inserts, ins_delta])?;
        let tomb_minus = self.tombstones.subtract(ins_delta)?;
        // Deletes: drop from the insert run; tombstone only rows the base
        // actually holds (inert tombstones would just bloat the overlay).
        self.inserts = merged_ins.subtract(del_delta)?;
        let del_hitting_base = del_delta.subtract(&del_delta.subtract(&self.base)?)?;
        self.tombstones = Relation::merge_sorted(&[&tomb_minus, &del_hitting_base])?;

        self.seq += 1;
        Ok(ApplyOutcome { inserted, deleted, seq: self.seq, ..outcome })
    }

    /// Whether the overlay has outgrown the configured fraction of the base.
    pub fn needs_compaction(&self, cfg: &DeltaConfig) -> bool {
        let overlay = self.overlay_tuples();
        overlay >= cfg.min_overlay_tuples
            && overlay as f64 > cfg.max_overlay_fraction * self.base.len().max(1) as f64
    }

    /// Folds the overlay into the base. The effective contents are unchanged,
    /// so the sequence number is kept — readers keyed by it stay valid.
    pub fn compact(&mut self) {
        self.base = self.effective();
        let schema = self.base.schema().clone();
        self.inserts = Relation::empty(schema.clone());
        self.tombstones = Relation::empty(schema);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(ids: &[u32], rows: &[&[Value]]) -> Relation {
        Relation::from_rows(Schema::from_ids(ids), rows).unwrap()
    }

    fn rows(v: &[&[Value]]) -> Vec<Vec<Value>> {
        v.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn apply_tracks_visibility_and_seq() {
        let mut d = DeltaRelation::new(rel(&[0, 1], &[&[1, 2], &[3, 4]]));
        // insert one new + one duplicate; delete one base row + one missing
        let out = d.apply(&rows(&[&[5, 6], &[1, 2]]), &rows(&[&[3, 4], &[9, 9]])).unwrap();
        assert_eq!((out.inserted, out.deleted, out.seq), (1, 1, 1));
        let eff = d.effective();
        assert_eq!(eff, rel(&[0, 1], &[&[1, 2], &[5, 6]]));
        // inert tombstone [9,9] was trimmed; [1,2] was absorbed, not overlaid
        assert_eq!(d.tombstones().len(), 1);
        assert_eq!(d.inserts().len(), 2, "duplicate insert still rides the run");
        // empty batch: no-op, seq untouched
        let out = d.apply(&[], &[]).unwrap();
        assert_eq!((out.inserted, out.deleted, out.seq), (0, 0, 1));
    }

    #[test]
    fn delete_then_reinsert_resurrects() {
        let mut d = DeltaRelation::new(rel(&[0, 1], &[&[1, 2]]));
        d.apply(&[], &rows(&[&[1, 2]])).unwrap();
        assert!(d.effective().is_empty());
        let out = d.apply(&rows(&[&[1, 2]]), &[]).unwrap();
        assert_eq!(out.inserted, 1);
        assert_eq!(d.effective(), rel(&[0, 1], &[&[1, 2]]));
        assert!(d.tombstones().is_empty(), "resurrection clears the tombstone");
    }

    #[test]
    fn insert_and_delete_in_one_batch_deletes_last() {
        let mut d = DeltaRelation::new(rel(&[0, 1], &[&[1, 2]]));
        let out = d.apply(&rows(&[&[5, 6]]), &rows(&[&[5, 6]])).unwrap();
        assert_eq!((out.inserted, out.deleted), (0, 0));
        assert_eq!(d.effective(), rel(&[0, 1], &[&[1, 2]]));
    }

    #[test]
    fn outcome_counts_what_the_effective_relation_gained_and_lost() {
        // Random batches over a small domain, so inserts collide with
        // visible, tombstoned and same-batch-deleted rows.
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: u32| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % u64::from(n)) as Value
        };
        let base: Vec<Vec<Value>> = (0..20).map(|_| vec![next(6), next(6)]).collect();
        let base_refs: Vec<&[Value]> = base.iter().map(|r| r.as_slice()).collect();
        let mut d = DeltaRelation::new(rel(&[0, 1], &base_refs));
        for _ in 0..200 {
            let batch = |next: &mut dyn FnMut(u32) -> Value| {
                (0..next(5)).map(|_| vec![next(6), next(6)]).collect::<Vec<_>>()
            };
            let (ins, del) = (batch(&mut next), batch(&mut next));
            let before = d.effective();
            let out = d.apply(&ins, &del).unwrap();
            let after = d.effective();
            assert_eq!(out.inserted, after.subtract(&before).unwrap().len(), "{ins:?} {del:?}");
            assert_eq!(out.deleted, before.subtract(&after).unwrap().len(), "{ins:?} {del:?}");
        }
    }

    #[test]
    fn compaction_trigger_and_equivalence() {
        let base: Vec<Vec<Value>> = (0..100).map(|i| vec![i, i]).collect();
        let base_refs: Vec<&[Value]> = base.iter().map(|r| r.as_slice()).collect();
        let mut d = DeltaRelation::new(rel(&[0, 1], &base_refs));
        let cfg = DeltaConfig { max_overlay_fraction: 0.25, min_overlay_tuples: 10 };
        d.apply(&rows(&[&[200, 200], &[201, 201]]), &rows(&[&[0, 0]])).unwrap();
        assert!(!d.needs_compaction(&cfg), "3 overlay tuples under min");
        let big: Vec<Vec<Value>> = (300..330).map(|i| vec![i, i]).collect();
        d.apply(&big, &[]).unwrap();
        assert!(d.needs_compaction(&cfg), "32 > 0.25 * 100");
        let eff = d.effective();
        let seq = d.seq();
        d.compact();
        assert_eq!(d.effective(), eff);
        assert_eq!(d.base(), &eff);
        assert_eq!(d.overlay_tuples(), 0);
        assert_eq!(d.seq(), seq, "compaction preserves the sequence");
        assert!(!d.needs_compaction(&cfg));
    }

    #[test]
    fn ragged_rows_error_without_corrupting_state() {
        let mut d = DeltaRelation::new(rel(&[0, 1], &[&[1, 2]]));
        assert!(d.apply(&rows(&[&[1]]), &[]).is_err());
        assert_eq!(d.seq(), 0);
        assert_eq!(d.effective(), rel(&[0, 1], &[&[1, 2]]));
    }
}
