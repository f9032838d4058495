//! A database: named relations, as maintained disjointly across the cluster
//! (Sec. II-A).

use crate::error::{Error, Result};
use crate::relation::Relation;
use crate::Value;

/// An ordered collection of named relations. Order is insertion order, which
/// keeps experiment output deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Database {
    names: Vec<String>,
    relations: Vec<Relation>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Inserts (or replaces) a relation under `name`.
    pub fn insert(&mut self, name: impl Into<String>, rel: Relation) {
        let name = name.into();
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            self.relations[i] = rel;
        } else {
            self.names.push(name);
            self.relations.push(rel);
        }
    }

    /// Inserts a batch of tuples into the named relation (set semantics:
    /// rows already present are absorbed). The rows must match the stored
    /// relation's arity; they are merged into normal form in one pass. This
    /// is the single-node face of the delta-overlay mutation path — the
    /// serving layer's `Service::mutate` builds on the same kernels.
    pub fn insert_rows(&mut self, name: &str, rows: &[&[Value]]) -> Result<usize> {
        let i = self
            .names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| Error::NoSuchRelation(name.to_string()))?;
        let delta = Relation::from_rows(self.relations[i].schema().clone(), rows)?;
        let before = self.relations[i].len();
        self.relations[i] = Relation::merge_sorted(&[&self.relations[i], &delta])?;
        Ok(self.relations[i].len() - before)
    }

    /// Deletes a batch of tuples from the named relation. Rows not present
    /// are ignored (a tombstone of a missing row is a no-op, not an error).
    /// Returns how many tuples were actually removed.
    pub fn delete_rows(&mut self, name: &str, rows: &[&[Value]]) -> Result<usize> {
        let i = self
            .names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| Error::NoSuchRelation(name.to_string()))?;
        let tombstones = Relation::from_rows(self.relations[i].schema().clone(), rows)?;
        let before = self.relations[i].len();
        self.relations[i] = self.relations[i].subtract(&tombstones)?;
        Ok(before - self.relations[i].len())
    }

    /// Looks up a relation by name.
    pub fn get(&self, name: &str) -> Result<&Relation> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| &self.relations[i])
            .ok_or_else(|| Error::NoSuchRelation(name.to_string()))
    }

    /// Whether `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.names.iter().any(|n| n == name)
    }

    /// Iterates `(name, relation)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Relation)> {
        self.names.iter().map(|s| s.as_str()).zip(self.relations.iter())
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether the database has no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Total tuple count across relations (`|R|` column of Table I).
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(|r| r.len()).sum()
    }

    /// Total payload bytes across relations (`Size` column of Table I).
    pub fn total_bytes(&self) -> usize {
        self.relations.iter().map(|r| r.size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn rel(ids: &[u32], rows: &[&[Value]]) -> Relation {
        Relation::from_rows(Schema::from_ids(ids), rows).unwrap()
    }

    #[test]
    fn insert_get_replace() {
        let mut db = Database::new();
        db.insert("R1", rel(&[0, 1], &[&[1, 2]]));
        assert_eq!(db.get("R1").unwrap().len(), 1);
        db.insert("R1", rel(&[0, 1], &[&[1, 2], &[3, 4]]));
        assert_eq!(db.get("R1").unwrap().len(), 2);
        assert_eq!(db.len(), 1);
        assert!(db.get("R2").is_err());
    }

    #[test]
    fn insert_and_delete_rows_mutate_in_place() {
        let mut db = Database::new();
        db.insert("R1", rel(&[0, 1], &[&[1, 2], &[3, 4]]));
        // inserting one new and one existing row adds exactly one tuple
        assert_eq!(db.insert_rows("R1", &[&[5, 6], &[1, 2]]).unwrap(), 1);
        assert_eq!(db.get("R1").unwrap().len(), 3);
        // deleting one present and one missing row removes exactly one
        assert_eq!(db.delete_rows("R1", &[&[3, 4], &[9, 9]]).unwrap(), 1);
        let r = db.get("R1").unwrap();
        assert!(r.contains_row(&[1, 2]) && r.contains_row(&[5, 6]) && !r.contains_row(&[3, 4]));
        // unknown relation and ragged rows error
        assert!(db.insert_rows("nope", &[&[1, 2]]).is_err());
        assert!(db.delete_rows("R1", &[&[1]]).is_err());
    }

    #[test]
    fn totals() {
        let mut db = Database::new();
        db.insert("R1", rel(&[0, 1], &[&[1, 2], &[3, 4]]));
        db.insert("R2", rel(&[1, 2], &[&[1, 2]]));
        assert_eq!(db.total_tuples(), 3);
        assert_eq!(db.total_bytes(), 3 * 2 * 4);
    }
}
