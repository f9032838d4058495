//! [`BindingBatch`]: the normalized input of a batched execution.

use adj_relational::{Attr, BoundValues, Error, Result, Value};

/// A batch of parameter bindings for one prepared query shape.
///
/// Construction normalizes the submissions once, so the result cache and
/// the executor work on canonical inputs:
///
/// * every submission binds the **same attribute set**, in one flat buffer
///   of value rows (`ParamTable::resolve_into` writes them);
/// * duplicate submissions — identical value vectors — collapse onto one
///   *unique* binding that is executed once, with [`BindingBatch::slot_of`]
///   mapping each submission back to its result;
/// * unique bindings are sorted by value vector, so identical batches
///   normalize identically regardless of submission order.
///
/// The executor later projects the value vectors onto the plan's
/// attribute-*order* positions (and sorts them in that projection) — that
/// part depends on the plan, so it is not baked in here.
#[derive(Debug, Clone)]
pub struct BindingBatch {
    /// Deduplicated bindings, sorted by value vector.
    unique: Vec<BoundValues>,
    /// For each submission index: the index into `unique` holding its
    /// values.
    slot_of: Vec<usize>,
}

impl BindingBatch {
    /// Normalizes `len` submissions of the attributes `attrs` (ascending,
    /// distinct), whose values `values` holds row after row: submission
    /// `i` binds `attrs[k]` to `values[i * attrs.len() + k]`.
    ///
    /// The submissions are sorted by value vector, so equal ones sit side
    /// by side and each run of them becomes one unique binding. A one-value
    /// row sorts as a packed `u64` key (value, then submission index); a
    /// wider one as an index sort comparing rows in the flat buffer. The
    /// only allocations are the sort's, the slot map and one binding per
    /// unique.
    pub fn new(attrs: &[Attr], len: usize, values: &[Value]) -> Result<Self> {
        if !attrs.windows(2).all(|w| w[0] < w[1]) {
            return Err(Error::SchemaMismatch {
                left: format!("batch binds {attrs:?}"),
                right: "ascending, distinct attributes".to_string(),
            });
        }
        let width = attrs.len();
        if values.len() != len * width {
            return Err(Error::ArityMismatch { expected: len * width, got: values.len() });
        }
        let row = |i: usize| &values[i * width..(i + 1) * width];
        let mut unique: Vec<BoundValues> = Vec::new();
        let mut slot_of = vec![0; len];
        // Submissions in value-vector order, each run of equal ones
        // opening one unique: `push` is told each submission in turn.
        let mut push = |i: usize, new_run: bool| {
            if new_run {
                let pairs = attrs.iter().copied().zip(row(i).iter().copied()).collect();
                unique.push(BoundValues::new(pairs).expect("ascending, distinct attributes"));
            }
            slot_of[i] = unique.len() - 1;
        };
        match width {
            0 => (0..len).for_each(|i| push(i, i == 0)),
            1 if u32::try_from(len).is_ok() => {
                let mut keys: Vec<u64> = values
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (u64::from(v) << 32) | i as u64)
                    .collect();
                keys.sort_unstable();
                for (k, &key) in keys.iter().enumerate() {
                    push(key as u32 as usize, k == 0 || keys[k - 1] >> 32 != key >> 32);
                }
            }
            _ => {
                let mut order: Vec<usize> = (0..len).collect();
                order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
                for (k, &i) in order.iter().enumerate() {
                    push(i, k == 0 || row(order[k - 1]) != row(i));
                }
            }
        }
        Ok(BindingBatch { unique, slot_of })
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

    /// The deduplicated bindings and the slot map, by value: the batch
    /// door moves its cold uniques into the executor's driver batch and on
    /// into the result LRU instead of cloning them.
    pub fn into_parts(self) -> (Vec<BoundValues>, Vec<usize>) {
        (self.unique, self.slot_of)
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

    fn bv(pairs: &[(u32, Value)]) -> BoundValues {
        BoundValues::new(pairs.iter().map(|&(a, v)| (Attr(a), v)).collect()).unwrap()
    }

    /// The batch of `submissions`, all binding the first one's attributes,
    /// through the flat-buffer constructor.
    fn batch(submissions: Vec<BoundValues>) -> BindingBatch {
        let attrs: Vec<Attr> = submissions.first().map(|b| b.attrs().collect()).unwrap_or_default();
        let values: Vec<Value> =
            submissions.iter().flat_map(|b| b.pairs().iter().map(|p| p.1)).collect();
        BindingBatch::new(&attrs, submissions.len(), &values).unwrap()
    }

    #[test]
    fn dedups_and_sorts_uniques() {
        let batch = batch(vec![bv(&[(0, 7)]), bv(&[(0, 3)]), bv(&[(0, 7)]), bv(&[(0, 3)])]);
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.unique_len(), 2);
        let values: Vec<Value> = batch.unique().iter().map(|b| b.pairs()[0].1).collect();
        assert_eq!(values, vec![3, 7], "uniques sort by value vector");
        assert_eq!(batch.slot_of(), &[1, 0, 1, 0]);
    }

    #[test]
    fn submission_order_does_not_change_normal_form() {
        let a = batch(vec![bv(&[(0, 9)]), bv(&[(0, 1)]), bv(&[(0, 5)])]);
        let b = batch(vec![bv(&[(0, 5)]), bv(&[(0, 9)]), bv(&[(0, 1)])]);
        assert_eq!(
            a.unique().iter().map(|u| u.pairs().to_vec()).collect::<Vec<_>>(),
            b.unique().iter().map(|u| u.pairs().to_vec()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn rejects_unsorted_attributes_and_ragged_buffers() {
        let unsorted = BindingBatch::new(&[Attr(1), Attr(0)], 1, &[1, 2]).unwrap_err();
        assert!(matches!(unsorted, Error::SchemaMismatch { .. }), "{unsorted:?}");
        let repeated = BindingBatch::new(&[Attr(1), Attr(1)], 1, &[1, 1]).unwrap_err();
        assert!(matches!(repeated, Error::SchemaMismatch { .. }), "{repeated:?}");
        let ragged = BindingBatch::new(&[Attr(0), Attr(1)], 2, &[1, 2, 3]).unwrap_err();
        assert!(matches!(ragged, Error::ArityMismatch { expected: 4, got: 3 }), "{ragged:?}");
    }

    #[test]
    fn empty_batch_is_fine() {
        let batch = BindingBatch::new(&[Attr(0)], 0, &[]).unwrap();
        assert!(batch.is_empty());
        assert_eq!(batch.unique_len(), 0);
        // Submissions that bind nothing are one unique, the empty binding.
        let nothing = BindingBatch::new(&[], 3, &[]).unwrap();
        assert_eq!(
            (nothing.unique(), nothing.slot_of()),
            (&[BoundValues::none()][..], &[0; 3][..])
        );
    }

    #[test]
    fn sorting_submissions_matches_dedup_then_sort() {
        // Reference: the sorted, deduplicated value vectors, and each
        // submission's slot looked up among them. Values reach both ends
        // of the domain, so the packed one-value key is checked there too.
        let mut state = 7u64;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let v = (state >> 33) % n;
            if v == n - 1 {
                Value::MAX
            } else {
                v as Value
            }
        };
        for (len, width) in
            [(0, 1), (1, 1), (2, 2), (5, 1), (64, 2), (300, 1), (300, 2), (300, 3), (9, 0)]
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
            let attrs: Vec<Attr> = [1, 4, 5].iter().take(width).map(|&a| Attr(a)).collect();
            let values: Vec<Value> =
                submissions.iter().flat_map(|b| b.pairs().iter().map(|p| p.1)).collect();
            let batch = BindingBatch::new(&attrs, len, &values).unwrap();
            let got: Vec<Vec<(Attr, Value)>> =
                batch.unique().iter().map(|u| u.pairs().to_vec()).collect();
            assert_eq!(got, uniques, "{len} submissions of width {width}");
            assert_eq!(batch.slot_of(), slots.as_slice(), "{len} submissions of width {width}");
        }
    }

    #[test]
    fn multi_attr_bindings_normalize() {
        let batch =
            batch(vec![bv(&[(0, 2), (2, 9)]), bv(&[(0, 1), (2, 4)]), bv(&[(0, 2), (2, 9)])]);
        assert!(batch.unique().iter().all(|u| u.attrs().eq([Attr(0), Attr(2)])));
        assert_eq!(batch.unique_len(), 2);
        assert_eq!(batch.slot_of(), &[1, 0, 1]);
    }
}
