//! Per-level state of a join, held inline.
//!
//! A join has one level per attribute of its order, and a query has at
//! most [`MAX_ATTRS`] attributes, so per-level counters and share vectors
//! fit in a fixed array: they are built, reset and merged per call without
//! touching the heap.

use crate::schema::MAX_ATTRS;
use std::fmt;
use std::ops::{AddAssign, Deref, DerefMut};

/// Up to [`MAX_ATTRS`] values, one per join level, stored inline.
///
/// Reads and writes go through the slice of its `len` levels
/// (`Deref<Target = [T]>`); the slots past it always hold `T::default()`,
/// so two `Levels` are equal exactly when their slices are.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Levels<T> {
    items: [T; MAX_ATTRS],
    len: usize,
}

impl<T: Copy + Default> Levels<T> {
    /// `len` levels of `T::default()`. Panics past [`MAX_ATTRS`].
    pub fn new(len: usize) -> Self {
        assert!(len <= MAX_ATTRS, "{len} levels, past the limit of {MAX_ATTRS}");
        Levels { items: [T::default(); MAX_ATTRS], len }
    }

    /// Adds `other` level by level, growing to its length.
    pub fn add(&mut self, other: &Levels<T>)
    where
        T: AddAssign,
    {
        self.len = self.len.max(other.len);
        for (into, &from) in self.items.iter_mut().zip(&other.items) {
            *into += from;
        }
    }
}

impl<T> Deref for Levels<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..self.len]
    }
}

impl<T> DerefMut for Levels<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[..self.len]
    }
}

impl<T: Copy + Default> FromIterator<T> for Levels<T> {
    /// Collects up to [`MAX_ATTRS`] values; panics on more.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut levels = Levels::new(0);
        for item in iter {
            assert!(levels.len < MAX_ATTRS, "more than {MAX_ATTRS} levels");
            levels.items[levels.len] = item;
            levels.len += 1;
        }
        levels
    }
}

impl<T: fmt::Debug> fmt::Debug for Levels<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_read_write_and_add_as_slices() {
        let mut a: Levels<u64> = [1, 2].into_iter().collect();
        a[1] += 5;
        let b: Levels<u64> = [10, 0, 7].into_iter().collect();
        a.add(&b);
        assert_eq!(&*a, &[11, 7, 7]);
        assert_eq!(format!("{a:?}"), "[11, 7, 7]");
        assert_eq!(Levels::<u64>::new(3), [0, 0, 0].into_iter().collect());
        assert_ne!(Levels::<u64>::new(2), Levels::new(3));
        assert!(Levels::<u32>::default().is_empty());
    }

    #[test]
    #[should_panic(expected = "more than 16 levels")]
    fn more_levels_than_attributes_panic() {
        let _: Levels<u32> = (0..=MAX_ATTRS as u32).collect();
    }
}
