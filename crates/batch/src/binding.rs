//! [`BindingBatch`]: the normalized input of a batched execution.

use adj_relational::{Attr, BoundValues, Error, Result};

/// A batch of parameter bindings for one prepared query shape.
///
/// Construction normalizes the submissions once, so the executor (and the
/// per-binding result cache above it) work on canonical inputs:
///
/// * every submission must bind the **same attribute set** (they are
///   bindings of one shape; a mismatch is a typed error);
/// * duplicate submissions — identical value vectors — collapse onto one
///   *unique* binding that is executed once, with [`BindingBatch::slot_of`]
///   mapping each submission back to its result;
/// * unique bindings are sorted by value vector, so identical batches
///   normalize identically regardless of submission order.
///
/// The executor later re-projects the value vectors into the plan's
/// attribute-*order* positions (and re-sorts lexicographically in that
/// projection) — that part depends on the plan, so it is not baked in here.
#[derive(Debug, Clone)]
pub struct BindingBatch {
    /// The attribute set every submission binds, ascending.
    attrs: Vec<Attr>,
    /// Deduplicated bindings, sorted by value vector.
    unique: Vec<BoundValues>,
    /// For each submission index: the index into `unique` holding its
    /// values.
    slot_of: Vec<usize>,
}

impl BindingBatch {
    /// Normalizes `bindings` into a batch. Every submission must bind the
    /// same attribute set; the first submission fixes it.
    ///
    /// Submission indices are sorted by binding, so equal submissions sit
    /// side by side: each run of them moves its first binding into `unique`
    /// and points every member's slot at it. Nothing is hashed or cloned,
    /// and no per-submission vector is allocated.
    pub fn new(mut bindings: Vec<BoundValues>) -> Result<Self> {
        let attrs: Vec<Attr> = bindings
            .first()
            .map(|b| b.pairs().iter().map(|&(a, _)| a).collect())
            .unwrap_or_default();
        for b in &bindings {
            if !b.pairs().iter().map(|&(a, _)| a).eq(attrs.iter().copied()) {
                let bound_attrs: Vec<Attr> = b.pairs().iter().map(|&(a, _)| a).collect();
                return Err(Error::SchemaMismatch {
                    left: format!("batch binds {attrs:?}"),
                    right: format!("submission binds {bound_attrs:?}"),
                });
            }
        }
        // Every submission binds `attrs`, so ordering by pairs is ordering
        // by value vector: the canonical unique order.
        let mut order: Vec<usize> = (0..bindings.len()).collect();
        order.sort_unstable_by(|&a, &b| bindings[a].pairs().cmp(bindings[b].pairs()));
        let mut unique: Vec<BoundValues> = Vec::new();
        let mut slot_of = vec![0; bindings.len()];
        for i in order {
            if unique.last().is_none_or(|u| u.pairs() != bindings[i].pairs()) {
                unique.push(std::mem::take(&mut bindings[i]));
            }
            slot_of[i] = unique.len() - 1;
        }
        Ok(BindingBatch { attrs, unique, slot_of })
    }

    /// The attribute set every submission binds, ascending.
    pub fn attrs(&self) -> &[Attr] {
        &self.attrs
    }

    /// The deduplicated bindings, sorted by value vector.
    pub fn unique(&self) -> &[BoundValues] {
        &self.unique
    }

    /// For each submission index, the index into [`BindingBatch::unique`]
    /// holding its values.
    pub fn slot_of(&self) -> &[usize] {
        &self.slot_of
    }

    /// Number of submissions (including duplicates).
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// Whether the batch has no submissions.
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }

    /// Number of distinct bindings that will actually execute.
    pub fn unique_len(&self) -> usize {
        self.unique.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adj_relational::Value;

    fn bv(pairs: &[(u32, Value)]) -> BoundValues {
        BoundValues::new(pairs.iter().map(|&(a, v)| (Attr(a), v)).collect()).unwrap()
    }

    #[test]
    fn dedups_and_sorts_uniques() {
        let batch =
            BindingBatch::new(vec![bv(&[(0, 7)]), bv(&[(0, 3)]), bv(&[(0, 7)]), bv(&[(0, 3)])])
                .unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.unique_len(), 2);
        assert_eq!(batch.attrs(), &[Attr(0)]);
        let values: Vec<Value> = batch.unique().iter().map(|b| b.pairs()[0].1).collect();
        assert_eq!(values, vec![3, 7], "uniques sort by value vector");
        assert_eq!(batch.slot_of(), &[1, 0, 1, 0]);
    }

    #[test]
    fn submission_order_does_not_change_normal_form() {
        let a = BindingBatch::new(vec![bv(&[(0, 9)]), bv(&[(0, 1)]), bv(&[(0, 5)])]).unwrap();
        let b = BindingBatch::new(vec![bv(&[(0, 5)]), bv(&[(0, 9)]), bv(&[(0, 1)])]).unwrap();
        assert_eq!(
            a.unique().iter().map(|u| u.pairs().to_vec()).collect::<Vec<_>>(),
            b.unique().iter().map(|u| u.pairs().to_vec()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn rejects_mixed_attribute_sets() {
        let err = BindingBatch::new(vec![bv(&[(0, 1)]), bv(&[(1, 1)])]).unwrap_err();
        assert!(matches!(err, Error::SchemaMismatch { .. }));
    }

    #[test]
    fn empty_batch_is_fine() {
        let batch = BindingBatch::new(Vec::new()).unwrap();
        assert!(batch.is_empty());
        assert_eq!(batch.unique_len(), 0);
        assert!(batch.attrs().is_empty());
    }

    #[test]
    fn sorting_submissions_matches_dedup_then_sort() {
        // Reference: the sorted, deduplicated value vectors, and each
        // submission's slot looked up among them.
        let mut state = 7u64;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % n) as Value
        };
        for (len, width) in [(0, 1), (1, 1), (2, 2), (5, 1), (64, 2), (300, 1), (300, 2), (300, 3)]
        {
            let submissions: Vec<BoundValues> = (0..len)
                .map(|_| {
                    let pairs: Vec<(u32, Value)> =
                        [1, 4, 5].iter().take(width).map(|&a| (a, next(6))).collect();
                    bv(&pairs)
                })
                .collect();
            let mut uniques: Vec<Vec<(Attr, Value)>> =
                submissions.iter().map(|b| b.pairs().to_vec()).collect();
            uniques.sort();
            uniques.dedup();
            let slots: Vec<usize> = submissions
                .iter()
                .map(|b| uniques.binary_search(&b.pairs().to_vec()).unwrap())
                .collect();
            let batch = BindingBatch::new(submissions).unwrap();
            let got: Vec<Vec<(Attr, Value)>> =
                batch.unique().iter().map(|u| u.pairs().to_vec()).collect();
            assert_eq!(got, uniques, "{len} submissions of width {width}");
            assert_eq!(batch.slot_of(), slots.as_slice(), "{len} submissions of width {width}");
        }
    }

    #[test]
    fn multi_attr_bindings_normalize() {
        let batch = BindingBatch::new(vec![
            bv(&[(0, 2), (2, 9)]),
            bv(&[(0, 1), (2, 4)]),
            bv(&[(0, 2), (2, 9)]),
        ])
        .unwrap();
        assert_eq!(batch.attrs(), &[Attr(0), Attr(2)]);
        assert_eq!(batch.unique_len(), 2);
        assert_eq!(batch.slot_of(), &[1, 0, 1]);
    }
}
