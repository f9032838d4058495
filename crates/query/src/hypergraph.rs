//! Query hypergraphs `H = (V, E)` (Sec. II of the paper).
//!
//! Vertices are attribute ids `0..n` and hyperedges are attribute bitmasks —
//! the GHD search enumerates thousands of edge subsets, so everything here is
//! O(1) mask arithmetic.

use adj_relational::MAX_ATTRS;

/// A hypergraph over at most [`MAX_ATTRS`] vertices: a query's attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hypergraph {
    num_vertices: u32,
    /// One bitmask of vertices per hyperedge, in atom order.
    edges: Vec<u64>,
}

impl Hypergraph {
    /// Creates a hypergraph; each edge must be a non-empty subset of
    /// `0..num_vertices`.
    pub fn new(num_vertices: u32, edges: Vec<u64>) -> Self {
        assert!(num_vertices as usize <= MAX_ATTRS);
        let universe = (1u64 << num_vertices) - 1;
        for &e in &edges {
            assert!(e != 0 && e & !universe == 0, "edge out of vertex range");
        }
        Hypergraph { num_vertices, edges }
    }

    /// Number of vertices `|V(H)|`.
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of hyperedges `|E(H)|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Edge `i`'s vertex mask.
    #[inline]
    pub fn edge(&self, i: usize) -> u64 {
        self.edges[i]
    }

    /// All edges.
    #[inline]
    pub fn edges(&self) -> &[u64] {
        &self.edges
    }

    /// Union of the vertex sets of the edges selected by `edge_set` (bitmask
    /// over edge indices).
    pub fn vertices_of(&self, edge_set: u64) -> u64 {
        let mut m = 0u64;
        let mut s = edge_set;
        while s != 0 {
            let i = s.trailing_zeros() as usize;
            m |= self.edges[i];
            s &= s - 1;
        }
        m
    }

    /// Edges incident to any vertex in `vmask`, as an edge bitmask.
    pub fn edges_touching(&self, vmask: u64) -> u64 {
        let mut out = 0u64;
        for (i, &e) in self.edges.iter().enumerate() {
            if e & vmask != 0 {
                out |= 1 << i;
            }
        }
        out
    }

    /// Whether the sub-hypergraph induced by `edge_set` is connected
    /// (sharing a vertex connects two edges). Empty/singleton sets count as
    /// connected.
    pub fn is_connected_edges(&self, edge_set: u64) -> bool {
        if edge_set == 0 {
            return true;
        }
        let first = edge_set.trailing_zeros();
        let mut seen: u64 = 1 << first;
        let mut frontier_vs = self.edges[first as usize];
        loop {
            let mut grew = false;
            let mut rest = edge_set & !seen;
            while rest != 0 {
                let i = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if self.edges[i] & frontier_vs != 0 {
                    seen |= 1 << i;
                    frontier_vs |= self.edges[i];
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        seen == edge_set
    }

    /// Partitions `edge_set` into connected components where two edges are
    /// adjacent iff they share a vertex **outside** `separator_vs`. This is
    /// the component split the GHD recursion performs after choosing a bag.
    pub fn components_outside(&self, edge_set: u64, separator_vs: u64) -> Vec<u64> {
        let mut remaining = edge_set;
        let mut comps = Vec::new();
        while remaining != 0 {
            let seed = remaining.trailing_zeros() as usize;
            let mut comp: u64 = 1 << seed;
            let mut vs = self.edges[seed] & !separator_vs;
            loop {
                let mut grew = false;
                let mut rest = remaining & !comp;
                while rest != 0 {
                    let i = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    if self.edges[i] & vs != 0 {
                        comp |= 1 << i;
                        vs |= self.edges[i] & !separator_vs;
                        grew = true;
                    }
                }
                if !grew {
                    break;
                }
            }
            comps.push(comp);
            remaining &= !comp;
        }
        comps
    }

    /// Whether the whole hypergraph is acyclic (α-acyclic), decided by the
    /// GYO reduction (repeatedly remove ear edges / isolated vertices).
    /// Used to sanity-check that pre-computing all non-trivial GHD bags
    /// yields an (almost) acyclic residual query — the paper's intuition in
    /// Sec. III-A.
    pub fn is_acyclic(&self) -> bool {
        let mut edges: Vec<u64> = self.edges.clone();
        loop {
            let mut changed = false;
            // Remove vertices appearing in exactly one edge.
            for v in 0..self.num_vertices {
                let vm = 1u64 << v;
                let cnt = edges.iter().filter(|&&e| e & vm != 0).count();
                if cnt == 1 {
                    for e in edges.iter_mut() {
                        if *e & vm != 0 {
                            *e &= !vm;
                            changed = true;
                        }
                    }
                }
            }
            // Remove empty edges and edges contained in another edge.
            let before = edges.len();
            edges.retain(|&e| e != 0);
            let snapshot = edges.clone();
            edges = snapshot
                .iter()
                .enumerate()
                .filter(|(i, &e)| {
                    !snapshot
                        .iter()
                        .enumerate()
                        .any(|(j, &f)| j != *i && e & !f == 0 && (f != e || j < *i))
                })
                .map(|(_, &e)| e)
                .collect();
            if edges.len() != before {
                changed = true;
            }
            if edges.is_empty() {
                return true;
            }
            if !changed {
                return false;
            }
        }
    }
}

/// Iterates the non-empty subsets of `set` (a bitmask), smallest first by
/// value. Standard subset-enumeration trick used by the GHD search.
pub fn subsets_of(set: u64) -> impl Iterator<Item = u64> {
    let mut sub = 0u64;
    let mut done = false;
    std::iter::from_fn(move || {
        if done {
            return None;
        }
        sub = sub.wrapping_sub(set) & set;
        if sub == 0 {
            done = true;
            return None;
        }
        Some(sub)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running-example hypergraph (Fig. 2): edges abc, ad, cd, be, ce.
    fn example() -> Hypergraph {
        Hypergraph::new(5, vec![0b00111, 0b01001, 0b01100, 0b10010, 0b10100])
    }

    #[test]
    fn vertices_of_unions_edges() {
        let h = example();
        assert_eq!(h.vertices_of(0b00011), 0b01111); // abc ∪ ad
        assert_eq!(h.vertices_of(0), 0);
    }

    #[test]
    fn connectivity() {
        let h = example();
        assert!(h.is_connected_edges(0b11111));
        assert!(h.is_connected_edges(0b00001));
        // ad and be share no vertex
        assert!(!h.is_connected_edges(0b01010));
        assert!(h.is_connected_edges(0));
    }

    #[test]
    fn components_outside_separator() {
        let h = example();
        // Separator = vertices of R1(a,b,c). Remaining edges ad, cd, be, ce:
        // ad–cd connect through d; be–ce connect through e. Two components.
        let sep = h.edge(0);
        let comps = h.components_outside(0b11110, sep);
        assert_eq!(comps.len(), 2);
        assert!(comps.contains(&0b00110));
        assert!(comps.contains(&0b11000));
    }

    #[test]
    fn acyclicity() {
        // Path a-b-c is acyclic.
        let path = Hypergraph::new(3, vec![0b011, 0b110]);
        assert!(path.is_acyclic());
        // Triangle is cyclic.
        let tri = Hypergraph::new(3, vec![0b011, 0b110, 0b101]);
        assert!(!tri.is_acyclic());
        // The example query's hypergraph is cyclic.
        assert!(!example().is_acyclic());
        // Replacing {ad, cd} and {be, ce} with joined edges acd, bce makes
        // it α-acyclic: {abc, acd, bce}.
        let joined = Hypergraph::new(5, vec![0b00111, 0b01101, 0b10110]);
        assert!(joined.is_acyclic());
    }

    #[test]
    fn subset_enumeration_counts() {
        let subs: Vec<u64> = subsets_of(0b1011).collect();
        assert_eq!(subs.len(), 7);
        assert!(subs.contains(&0b1011));
        assert!(subs.contains(&0b0001));
        assert!(!subs.contains(&0));
        assert!(subs.iter().all(|s| s & !0b1011 == 0));
    }

    #[test]
    fn edges_touching_mask() {
        let h = example();
        // vertex e (bit 4) touches be and ce (edges 3, 4)
        assert_eq!(h.edges_touching(1 << 4), 0b11000);
    }
}
