//! Bound constants: the execution-time face of prepared-query parameters.
//!
//! A [`BoundValues`] maps query attributes to the constants a prepared
//! query was bound to (inline literals resolved by the parser plus `$name`
//! parameters resolved by `Prepared::bind`). Its consumers:
//!
//! * Leapfrog seeks the constant at bound trie levels
//!   ([`BoundValues::get`]) instead of intersecting candidate runs — the
//!   only place a binding reaches at execution time (the HCube shuffle and
//!   its indexes are binding-independent);
//! * the optimizer prices bound attributes as one-value dimensions
//!   ([`BoundValues::mask`]) when it picks the attribute order.
//!
//! The type lives here (not in the query layer) because the join knows
//! nothing about queries — only about attributes and values.

use crate::error::{Error, Result};
use crate::schema::Attr;
use crate::Value;

/// A sorted, deduplicated set of `attribute = constant` equality selections.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BoundValues {
    /// `(attr, value)` pairs, sorted by attribute, at most one per attr.
    pairs: Vec<(Attr, Value)>,
}

impl BoundValues {
    /// No bindings — the unbound (plain join) execution.
    pub fn none() -> Self {
        BoundValues::default()
    }

    /// Builds the set from `(attr, value)` pairs. Duplicate attributes with
    /// equal values collapse; conflicting values for one attribute are
    /// rejected (such a query is a contradiction the caller should see, not
    /// a silently-empty answer).
    pub fn new(mut pairs: Vec<(Attr, Value)>) -> Result<Self> {
        pairs.sort_unstable();
        pairs.dedup();
        for w in pairs.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(Error::DuplicateAttr(w[0].0.to_string()));
            }
        }
        Ok(BoundValues { pairs })
    }

    /// Whether no attribute is bound.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of bound attributes.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// The bound value of `attr`, if any.
    pub fn get(&self, attr: Attr) -> Option<Value> {
        self.pairs.binary_search_by_key(&attr, |&(a, _)| a).ok().map(|i| self.pairs[i].1)
    }

    /// The `(attr, value)` pairs, sorted by attribute.
    pub fn pairs(&self) -> &[(Attr, Value)] {
        &self.pairs
    }

    /// Bitmask of the bound attributes.
    pub fn mask(&self) -> u64 {
        self.pairs.iter().fold(0, |m, &(a, _)| m | a.mask())
    }

    /// Merges two binding sets (e.g. parser-resolved literals with
    /// `bind`-time parameters), rejecting conflicts.
    pub fn merged(&self, other: &BoundValues) -> Result<BoundValues> {
        let mut pairs = self.pairs.clone();
        pairs.extend_from_slice(&other.pairs);
        BoundValues::new(pairs)
    }
}

impl FromIterator<(Attr, Value)> for BoundValues {
    /// Collects pairs, panicking on conflicting duplicates — use
    /// [`BoundValues::new`] for fallible construction.
    fn from_iter<T: IntoIterator<Item = (Attr, Value)>>(iter: T) -> Self {
        BoundValues::new(iter.into_iter().collect()).expect("conflicting bound values")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_dedup_and_lookup() {
        let b = BoundValues::new(vec![(Attr(2), 7), (Attr(0), 5), (Attr(2), 7)]).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(Attr(0)), Some(5));
        assert_eq!(b.get(Attr(2)), Some(7));
        assert_eq!(b.get(Attr(1)), None);
        assert_eq!(b.mask(), 0b101);
        assert!(!b.is_empty());
        assert!(BoundValues::none().is_empty());
    }

    #[test]
    fn conflicting_values_are_rejected() {
        let err = BoundValues::new(vec![(Attr(0), 1), (Attr(0), 2)]).unwrap_err();
        assert!(matches!(err, Error::DuplicateAttr(_)));
    }

    #[test]
    fn merge_combines_and_rejects_conflicts() {
        let a = BoundValues::new(vec![(Attr(0), 5)]).unwrap();
        let b = BoundValues::new(vec![(Attr(1), 6)]).unwrap();
        let m = a.merged(&b).unwrap();
        assert_eq!(m.len(), 2);
        let c = BoundValues::new(vec![(Attr(0), 7)]).unwrap();
        assert!(a.merged(&c).is_err());
        assert!(a.merged(&a).unwrap() == a);
    }
}
