//! Attributes and relation schemas.
//!
//! The paper works with natural-join queries whose attributes come from a
//! small global set (`a, b, c, d, e` in the running example). We represent an
//! attribute as a dense integer id ([`Attr`]) so that schemas are tiny arrays
//! and attribute sets are cheap bitmask operations — the GHD search in
//! `adj-query` enumerates thousands of attribute subsets and relies on this.

use crate::error::{Error, Result};
use std::fmt;

/// The most attributes a query may have: every attribute id is below it.
/// [`Schema::new`] refuses a larger id, so every relation schema, atom and
/// join order is bounded by it, and per-level state fits a
/// [`Levels`](crate::Levels).
pub const MAX_ATTRS: usize = 16;

/// A query attribute, identified by a dense id.
///
/// Ids are assigned by the query layer (attribute `a` of the paper is
/// `Attr(0)`, `b` is `Attr(1)`, …). Display renders ids `0..26` as letters to
/// match the paper's notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Attr(pub u32);

impl Attr {
    /// Dense index of the attribute.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Bitmask with only this attribute set. Every attribute of a
    /// [`Schema`] is below [`MAX_ATTRS`], so its bit fits.
    #[inline]
    pub fn mask(self) -> u64 {
        1u64 << self.0
    }
}

impl fmt::Display for Attr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 26 {
            write!(f, "{}", (b'a' + self.0 as u8) as char)
        } else {
            write!(f, "x{}", self.0)
        }
    }
}

/// An ordered list of distinct attributes: the schema of a relation.
///
/// Order matters — it is the column order of the row-major tuple store and
/// the level order of tries built without a permutation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Schema {
    attrs: Vec<Attr>,
}

impl Schema {
    /// Creates a schema, rejecting duplicate attributes and attribute ids
    /// of [`MAX_ATTRS`] or more ([`Error::BudgetExceeded`]).
    pub fn new(attrs: Vec<Attr>) -> Result<Self> {
        let mut mask = 0u64;
        for a in &attrs {
            if a.index() >= MAX_ATTRS {
                return Err(Error::BudgetExceeded { what: "attribute ids", limit: MAX_ATTRS });
            }
            if mask & a.mask() != 0 {
                return Err(Error::DuplicateAttr(a.to_string()));
            }
            mask |= a.mask();
        }
        Ok(Schema { attrs })
    }

    /// Creates a schema from attribute ids, panicking on duplicates or ids
    /// past [`MAX_ATTRS`].
    /// Convenience for tests and workload definitions.
    pub fn from_ids(ids: &[u32]) -> Self {
        Schema::new(ids.iter().map(|&i| Attr(i)).collect()).expect("distinct attr ids below 16")
    }

    /// The attributes, in column order.
    #[inline]
    pub fn attrs(&self) -> &[Attr] {
        &self.attrs
    }

    /// Number of attributes (relation arity).
    #[inline]
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Bitmask of the attribute set (ignores order).
    #[inline]
    pub fn mask(&self) -> u64 {
        self.attrs.iter().fold(0, |m, a| m | a.mask())
    }

    /// Column position of `attr`, if present.
    #[inline]
    pub fn position(&self, attr: Attr) -> Option<usize> {
        self.attrs.iter().position(|&a| a == attr)
    }

    /// Whether `attr` appears in this schema.
    #[inline]
    pub fn contains(&self, attr: Attr) -> bool {
        self.mask() & attr.mask() != 0
    }

    /// Attributes shared with `other`, in *this* schema's order.
    pub fn common(&self, other: &Schema) -> Vec<Attr> {
        self.attrs.iter().copied().filter(|a| other.contains(*a)).collect()
    }

    /// Attributes of `self` not present in `other`, in this schema's order.
    pub fn difference(&self, other: &Schema) -> Vec<Attr> {
        self.attrs.iter().copied().filter(|a| !other.contains(*a)).collect()
    }

    /// Union schema: `self`'s attributes followed by `other`'s new ones.
    /// This is the natural-join output schema convention used throughout.
    pub fn union(&self, other: &Schema) -> Schema {
        let mut attrs = self.attrs.clone();
        for &a in other.attrs() {
            if !self.contains(a) {
                attrs.push(a);
            }
        }
        Schema { attrs }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

impl From<&[u32]> for Schema {
    fn from(ids: &[u32]) -> Self {
        Schema::from_ids(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_display_matches_paper_notation() {
        assert_eq!(Attr(0).to_string(), "a");
        assert_eq!(Attr(4).to_string(), "e");
        assert_eq!(Attr(30).to_string(), "x30");
    }

    #[test]
    fn schema_rejects_duplicates() {
        assert!(Schema::new(vec![Attr(1), Attr(1)]).is_err());
        assert!(Schema::new(vec![Attr(0), Attr(1)]).is_ok());
    }

    #[test]
    fn schema_rejects_ids_past_the_limit_with_a_typed_error() {
        let widest = Attr(MAX_ATTRS as u32 - 1);
        assert_eq!(Schema::new(vec![Attr(0), widest]).unwrap().mask(), 1 | 1 << 15);
        for id in [MAX_ATTRS as u32, 63, 64, u32::MAX] {
            assert_eq!(
                Schema::new(vec![Attr(0), Attr(id)]),
                Err(Error::BudgetExceeded { what: "attribute ids", limit: MAX_ATTRS })
            );
        }
    }

    #[test]
    fn positions_and_masks() {
        let s = Schema::from_ids(&[2, 0, 3]);
        assert_eq!(s.arity(), 3);
        assert_eq!(s.position(Attr(0)), Some(1));
        assert_eq!(s.position(Attr(5)), None);
        assert!(s.contains(Attr(3)));
        assert_eq!(s.mask(), 0b1101);
    }

    #[test]
    fn common_and_difference_preserve_order() {
        let s = Schema::from_ids(&[0, 1, 2]); // (a,b,c)
        let t = Schema::from_ids(&[2, 3]); // (c,d)
        assert_eq!(s.common(&t), vec![Attr(2)]);
        assert_eq!(s.difference(&t), vec![Attr(0), Attr(1)]);
        assert_eq!(s.union(&t).attrs(), &[Attr(0), Attr(1), Attr(2), Attr(3)]);
    }

    #[test]
    fn display_schema() {
        let s = Schema::from_ids(&[0, 1, 2]);
        assert_eq!(s.to_string(), "(a,b,c)");
    }
}
