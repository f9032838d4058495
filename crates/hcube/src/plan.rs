//! HCube coordinate arithmetic and tuple routing.
//!
//! Routing works on per-attribute *coordinates*: a tuple's coordinate on a
//! dimension is its hash `h_A(v) ∈ [p_A]`, and it is replicated across
//! every dimension of an attribute its relation lacks (the `⋆` dimensions
//! of the paper's Example 2).

use adj_cluster::WorkerId;
use adj_relational::hash::hash_value;
use adj_relational::{Schema, Value};

/// A concrete HCube plan: the share vector plus worker assignment.
///
/// Hypercube coordinates live in `[p_0] × … × [p_{n-1}]`; the linear cube
/// index uses mixed-radix encoding in attribute-id order. Cubes are assigned
/// to workers round-robin (`cube % N*`) — "each machine can be assigned one
/// or more hypercubes" (Sec. II-A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HCubePlan {
    share: Vec<u32>,
    num_workers: usize,
}

impl HCubePlan {
    /// Creates a plan from a share vector (indexed by attribute id).
    pub fn new(share: Vec<u32>, num_workers: usize) -> Self {
        assert!(num_workers > 0);
        assert!(share.iter().all(|&p| p >= 1));
        HCubePlan { share, num_workers }
    }

    /// The share vector `p`.
    pub fn share(&self) -> &[u32] {
        &self.share
    }

    /// Number of workers `N*`.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Total number of hypercubes `P = Π p_A`.
    pub fn num_cubes(&self) -> usize {
        self.share.iter().map(|&x| x as usize).product()
    }

    /// Worker owning a cube (round-robin).
    #[inline]
    pub fn cube_to_worker(&self, cube: usize) -> WorkerId {
        cube % self.num_workers
    }

    /// Per-attribute hash `h_A(v) ∈ [p_A]`.
    #[inline]
    pub fn hash_dim(&self, attr_id: u32, v: Value) -> u32 {
        let p = self.share[attr_id as usize];
        if p == 1 {
            0
        } else {
            (hash_value(attr_id, v as u64) % p as u64) as u32
        }
    }

    /// Duplication factor of a relation under this plan.
    pub fn dup_factor(&self, schema: &Schema) -> u64 {
        crate::share::dup_factor(&self.share, schema.mask())
    }

    /// Per-attribute coordinates of one tuple — its hash on each of the
    /// relation's own attributes, aligned with `schema`.
    pub fn tuple_coords(&self, schema: &Schema, row: &[Value], coords: &mut Vec<u32>) {
        coords.clear();
        coords.extend(schema.attrs().iter().zip(row).map(|(&a, &v)| self.hash_dim(a.0, v)));
    }

    /// Block id of a tuple: mixed-radix code of the hash values of the
    /// relation's *own* attributes. Tuples sharing a block id go to exactly
    /// the same set of hypercubes — the grouping unit of the Pull/Merge
    /// implementations (Sec. V, Example 4).
    pub fn block_id(&self, schema: &Schema, row: &[Value]) -> u64 {
        let coords: Vec<u32> =
            schema.attrs().iter().enumerate().map(|(i, &a)| self.hash_dim(a.0, row[i])).collect();
        self.encode_block(schema, &coords)
    }

    /// Encodes a per-attribute coordinate vector (entries in `[p_A]`) into
    /// a block id, radix `p_A` per dimension.
    pub fn encode_block(&self, schema: &Schema, coords: &[u32]) -> u64 {
        let mut id = 0u64;
        for (&a, &c) in schema.attrs().iter().zip(coords) {
            id = id * self.share[a.index()] as u64 + c as u64;
        }
        id
    }

    /// Number of distinct blocks a relation can have.
    pub fn num_blocks(&self, schema: &Schema) -> u64 {
        schema.attrs().iter().map(|a| self.share[a.index()] as u64).product()
    }

    /// Visits every cube whose coordinate matches `fixed` (entries of
    /// `u32::MAX` are free `⋆` dimensions).
    fn for_each_matching_cube(&self, fixed: &[u32], mut visit: impl FnMut(usize)) {
        let n = self.share.len();
        let mut coord: Vec<u32> =
            fixed.iter().map(|&f| if f == u32::MAX { 0 } else { f }).collect();
        loop {
            let mut idx = 0usize;
            for (&share_d, &coord_d) in self.share.iter().zip(&coord) {
                idx = idx * share_d as usize + coord_d as usize;
            }
            visit(idx);
            // Advance the odometer over free dims, last dim fastest.
            let mut d = n;
            loop {
                if d == 0 {
                    return; // wrapped every free dim: enumeration complete
                }
                d -= 1;
                if fixed[d] != u32::MAX {
                    continue;
                }
                coord[d] += 1;
                if coord[d] < self.share[d] {
                    break;
                }
                coord[d] = 0;
            }
        }
    }

    /// Destination *cubes* of a tuple: all coordinates matching the tuple's
    /// hash values on the relation's attributes, any value elsewhere (the
    /// `⋆` dimensions of the paper's Example 2).
    pub fn route_cubes(&self, schema: &Schema, row: &[Value], cubes: &mut Vec<usize>) {
        cubes.clear();
        let n = self.share.len();
        let mut fixed = vec![u32::MAX; n];
        for (i, &a) in schema.attrs().iter().enumerate() {
            fixed[a.index()] = self.hash_dim(a.0, row[i]);
        }
        self.for_each_matching_cube(&fixed, |idx| cubes.push(idx));
    }

    /// Destination *workers* of a tuple (deduplicated).
    pub fn route_workers(&self, schema: &Schema, row: &[Value], dests: &mut Vec<WorkerId>) {
        let mut cubes = Vec::new();
        self.route_cubes(schema, row, &mut cubes);
        dests.clear();
        dests.extend(cubes.iter().map(|&c| self.cube_to_worker(c)));
        dests.sort_unstable();
        dests.dedup();
    }

    /// Workers that need the block with the given per-attribute coordinates
    /// (deduplicated): same as routing any representative tuple of the
    /// block.
    pub fn block_workers(&self, schema: &Schema, block_coords: &[u32]) -> Vec<WorkerId> {
        let n = self.share.len();
        let mut fixed = vec![u32::MAX; n];
        for (i, &a) in schema.attrs().iter().enumerate() {
            fixed[a.index()] = block_coords[i];
        }
        let mut out = Vec::new();
        self.for_each_matching_cube(&fixed, |idx| out.push(self.cube_to_worker(idx)));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Decomposes a block id back into per-attribute coordinates, inverse of
    /// [`HCubePlan::encode_block`].
    pub fn block_hashes(&self, schema: &Schema, mut block_id: u64) -> Vec<u32> {
        let mut out = vec![0u32; schema.arity()];
        for (i, &a) in schema.attrs().iter().enumerate().rev() {
            let p = self.share[a.index()] as u64;
            out[i] = (block_id % p) as u32;
            block_id /= p;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema(ids: &[u32]) -> Schema {
        Schema::from_ids(ids)
    }

    #[test]
    fn route_covers_free_dims() {
        // p = (1,2,2,1,1) as in the paper's Example 2: 4 cubes.
        let plan = HCubePlan::new(vec![1, 2, 2, 1, 1], 4);
        assert_eq!(plan.num_cubes(), 4);
        // A tuple of R2(a,d) fixes dims a,d (both share 1) and is free on
        // b,c → all 4 cubes.
        let mut cubes = Vec::new();
        plan.route_cubes(&schema(&[0, 3]), &[1, 1], &mut cubes);
        assert_eq!(cubes.len(), 4);
        let mut sorted = cubes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn route_fixed_tuple_hits_one_cube() {
        let plan = HCubePlan::new(vec![2, 2], 4);
        let mut cubes = Vec::new();
        plan.route_cubes(&schema(&[0, 1]), &[7, 9], &mut cubes);
        assert_eq!(cubes.len(), 1);
    }

    #[test]
    fn dup_factor_matches_route_count() {
        let plan = HCubePlan::new(vec![2, 3, 2], 12);
        let s = schema(&[0, 2]); // free dim: attr 1 with share 3
        assert_eq!(plan.dup_factor(&s), 3);
        let mut cubes = Vec::new();
        plan.route_cubes(&s, &[5, 6], &mut cubes);
        assert_eq!(cubes.len(), 3);
    }

    #[test]
    fn workers_dedup_when_cubes_share_worker() {
        // 4 cubes on 2 workers round-robin: a unary tuple free on attr 1
        // routes to 2 cubes that may share a worker — dests are deduped and
        // never exceed the worker count.
        let plan = HCubePlan::new(vec![2, 2], 2);
        let mut dests = Vec::new();
        plan.route_workers(&schema(&[0]), &[1], &mut dests);
        assert!(!dests.is_empty() && dests.len() <= 2);
        let mut sorted = dests.clone();
        sorted.dedup();
        assert_eq!(sorted, dests);
    }

    #[test]
    fn block_id_roundtrip() {
        let plan = HCubePlan::new(vec![2, 3, 4], 6);
        let s = schema(&[0, 2]);
        for row in [[0u32, 0], [1, 7], [13, 22], [5, 5]] {
            let id = plan.block_id(&s, &row);
            assert!(id < plan.num_blocks(&s));
            let hashes = plan.block_hashes(&s, id);
            assert_eq!(hashes[0], plan.hash_dim(0, row[0]));
            assert_eq!(hashes[1], plan.hash_dim(2, row[1]));
        }
    }

    #[test]
    fn block_workers_match_tuple_routing() {
        let plan = HCubePlan::new(vec![2, 2, 2], 8);
        let s = schema(&[0, 1]);
        let row = [3u32, 8];
        let mut dests = Vec::new();
        plan.route_workers(&s, &row, &mut dests);
        let hashes = vec![plan.hash_dim(0, row[0]), plan.hash_dim(1, row[1])];
        let bw = plan.block_workers(&s, &hashes);
        assert_eq!(dests, bw);
    }

    #[test]
    fn same_block_same_destinations() {
        let plan = HCubePlan::new(vec![2, 2], 4);
        let s = schema(&[0, 1]);
        let mut seen: std::collections::HashMap<u64, Vec<usize>> = Default::default();
        for u in 0..20u32 {
            for v in 0..20u32 {
                let mut d = Vec::new();
                plan.route_workers(&s, &[u, v], &mut d);
                let b = plan.block_id(&s, &[u, v]);
                if let Some(prev) = seen.get(&b) {
                    assert_eq!(prev, &d);
                } else {
                    seen.insert(b, d);
                }
            }
        }
        assert_eq!(seen.len(), 4);
    }
}
