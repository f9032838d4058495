//! Partitioned relations/databases: how data lives across the simulated
//! cluster, and the routed shuffle primitive every join method uses.

use crate::exec::Cluster;
use crate::WorkerId;
use adj_relational::hash::hash_value;
use adj_relational::{Attr, Error, Relation, Result, Schema, Value};

/// A relation split into one local part per worker.
#[derive(Debug, Clone)]
pub struct PartitionedRelation {
    schema: Schema,
    parts: Vec<Relation>,
}

impl PartitionedRelation {
    /// Wraps pre-existing parts (they must share the schema).
    pub fn from_parts(schema: Schema, parts: Vec<Relation>) -> Result<Self> {
        for p in &parts {
            if p.schema() != &schema {
                return Err(Error::SchemaMismatch {
                    left: schema.to_string(),
                    right: p.schema().to_string(),
                });
            }
        }
        Ok(PartitionedRelation { schema, parts })
    }

    /// Initial placement of base data: hash-partitioned by the first
    /// attribute across `n` workers, the conventional layout of a
    /// distributed store ("the database D is maintained at the servers
    /// disjointly", Sec. II-A).
    pub fn hash_partitioned(rel: &Relation, n: usize) -> Self {
        assert!(n > 0);
        let key = rel.schema().attrs()[0];
        let kp = rel.schema().position(key).unwrap();
        let mut bufs: Vec<Vec<Value>> = vec![Vec::new(); n];
        for row in rel.rows() {
            let w = (hash_value(key.0, row[kp] as u64) % n as u64) as usize;
            bufs[w].extend_from_slice(row);
        }
        let parts = bufs
            .into_iter()
            .map(|b| Relation::from_flat(rel.schema().clone(), b).expect("arity preserved"))
            .collect();
        PartitionedRelation { schema: rel.schema().clone(), parts }
    }

    /// The shared schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of parts (= workers).
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// Local part of `worker`.
    pub fn part(&self, worker: WorkerId) -> &Relation {
        &self.parts[worker]
    }

    /// All parts.
    pub fn parts(&self) -> &[Relation] {
        &self.parts
    }

    /// Total tuples across parts.
    pub fn total_tuples(&self) -> usize {
        self.parts.iter().map(|p| p.len()).sum()
    }

    /// Collects all parts into one relation (the final result union — "the
    /// union of the results by the servers is the answer", Sec. II-A).
    pub fn gather(&self) -> Relation {
        let mut data = Vec::new();
        for p in &self.parts {
            data.extend_from_slice(p.flat());
        }
        Relation::from_flat(self.schema.clone(), data).expect("parts share schema")
    }

    /// Routed shuffle: `route(row, &mut dests)` names the destination
    /// workers for each tuple (possibly several — HCube replicates tuples
    /// across hypercube slices). Every delivered copy is counted against the
    /// cluster's [`crate::CommStats`], and destination parts are checked
    /// against the per-worker memory budget.
    pub fn shuffle(
        &self,
        cluster: &Cluster,
        mut route: impl FnMut(&[Value], &mut Vec<WorkerId>),
    ) -> Result<PartitionedRelation> {
        let n = cluster.num_workers();
        cluster.comm().record_round();
        let arity = self.schema.arity().max(1);
        let mut bufs: Vec<Vec<Value>> = vec![Vec::new(); n];
        let mut dests: Vec<WorkerId> = Vec::with_capacity(4);
        let mut delivered: u64 = 0;
        for part in &self.parts {
            for row in part.rows() {
                dests.clear();
                route(row, &mut dests);
                for &d in &dests {
                    debug_assert!(d < n, "route to nonexistent worker");
                    bufs[d].extend_from_slice(row);
                    delivered += 1;
                }
            }
        }
        cluster.comm().record(delivered, delivered * (arity as u64) * 4);
        if let Some(limit) = cluster.config().memory_limit_bytes {
            for b in &bufs {
                if b.len() * 4 > limit {
                    return Err(Error::BudgetExceeded { what: "worker memory", limit });
                }
            }
        }
        let parts = bufs
            .into_iter()
            .map(|b| Relation::from_flat(self.schema.clone(), b).expect("arity preserved"))
            .collect();
        Ok(PartitionedRelation { schema: self.schema.clone(), parts })
    }

    /// Hash-reshuffles on `keys`: each tuple goes to exactly one worker
    /// chosen by hashing its key attributes. The building block of the
    /// multi-round binary-join baseline.
    pub fn shuffle_by_keys(&self, cluster: &Cluster, keys: &[Attr]) -> Result<PartitionedRelation> {
        let n = cluster.num_workers() as u64;
        let pos: Vec<usize> = keys
            .iter()
            .map(|&a| {
                self.schema.position(a).ok_or_else(|| Error::UnknownAttr {
                    attr: a.to_string(),
                    schema: self.schema.to_string(),
                })
            })
            .collect::<Result<_>>()?;
        self.shuffle(cluster, |row, dests| {
            // Salt by the key ordinal (not the column position) so two
            // relations with different layouts co-partition on equal keys.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for (k, &p) in pos.iter().enumerate() {
                h = hash_value(k as u32, h ^ row[p] as u64);
            }
            dests.push((h % n) as usize);
        })
    }
}

/// A database whose every relation is partitioned across the same cluster.
#[derive(Debug, Clone, Default)]
pub struct PartitionedDatabase {
    names: Vec<String>,
    relations: Vec<PartitionedRelation>,
}

impl PartitionedDatabase {
    /// Creates an empty partitioned database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hash-partitions every relation of `db` across `n` workers.
    pub fn from_database(db: &adj_relational::Database, n: usize) -> Self {
        let mut out = PartitionedDatabase::new();
        for (name, rel) in db.iter() {
            out.insert(name, PartitionedRelation::hash_partitioned(rel, n));
        }
        out
    }

    /// Inserts (or replaces) a partitioned relation.
    pub fn insert(&mut self, name: impl Into<String>, rel: PartitionedRelation) {
        let name = name.into();
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            self.relations[i] = rel;
        } else {
            self.names.push(name);
            self.relations.push(rel);
        }
    }

    /// Looks up by name.
    pub fn get(&self, name: &str) -> Result<&PartitionedRelation> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| &self.relations[i])
            .ok_or_else(|| Error::NoSuchRelation(name.to_string()))
    }

    /// Iterates `(name, relation)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &PartitionedRelation)> {
        self.names.iter().map(|s| s.as_str()).zip(self.relations.iter())
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Re-assembles the logical (gathered) database.
    pub fn gather(&self) -> adj_relational::Database {
        let mut db = adj_relational::Database::new();
        for (name, rel) in self.iter() {
            db.insert(name, rel.gather());
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterConfig;

    fn pairs(n: u32) -> Relation {
        let v: Vec<(Value, Value)> = (0..n).map(|i| (i, i + 1)).collect();
        Relation::from_pairs(Attr(0), Attr(1), &v)
    }

    #[test]
    fn hash_partition_covers_all_tuples() {
        let r = pairs(100);
        let p = PartitionedRelation::hash_partitioned(&r, 4);
        assert_eq!(p.num_parts(), 4);
        assert_eq!(p.total_tuples(), 100);
        assert_eq!(p.gather(), r);
        // distribution should be non-degenerate
        assert!(p.parts().iter().filter(|x| !x.is_empty()).count() >= 2);
    }

    #[test]
    fn shuffle_counts_copies() {
        let cluster = Cluster::new(ClusterConfig::with_workers(3));
        let r = pairs(10);
        let p = PartitionedRelation::hash_partitioned(&r, 3);
        // broadcast every tuple to all 3 workers
        let s = p.shuffle(&cluster, |_row, d| d.extend([0, 1, 2])).unwrap();
        assert_eq!(cluster.comm().tuples(), 30);
        assert_eq!(cluster.comm().rounds(), 1);
        for w in 0..3 {
            assert_eq!(s.part(w), &r);
        }
    }

    #[test]
    fn shuffle_by_keys_colocates_equal_keys() {
        let cluster = Cluster::new(ClusterConfig::with_workers(4));
        let r =
            Relation::from_pairs(Attr(0), Attr(1), &[(1, 10), (1, 11), (2, 20), (2, 21), (3, 30)]);
        let p = PartitionedRelation::hash_partitioned(&r, 4);
        let s = p.shuffle_by_keys(&cluster, &[Attr(0)]).unwrap();
        assert_eq!(s.total_tuples(), 5);
        // all tuples with the same key end up in the same part
        for key in [1u32, 2, 3] {
            let holders: Vec<usize> =
                (0..4).filter(|&w| s.part(w).rows().any(|row| row[0] == key)).collect();
            assert_eq!(holders.len(), 1, "key {key} split across {holders:?}");
        }
    }

    #[test]
    fn memory_budget_trips() {
        let mut cfg = ClusterConfig::with_workers(2);
        cfg.memory_limit_bytes = Some(8); // one binary tuple
        let cluster = Cluster::new(cfg);
        let p = PartitionedRelation::hash_partitioned(&pairs(10), 2);
        let err = p.shuffle(&cluster, |_r, d| d.push(0)).unwrap_err();
        assert!(matches!(err, Error::BudgetExceeded { .. }));
    }

    #[test]
    fn partitioned_database_roundtrip() {
        let mut db = adj_relational::Database::new();
        db.insert("R1", pairs(10));
        db.insert("R2", pairs(20));
        let pdb = PartitionedDatabase::from_database(&db, 3);
        assert_eq!(pdb.len(), 2);
        assert_eq!(pdb.gather(), db);
        assert!(pdb.get("R3").is_err());
    }
}
