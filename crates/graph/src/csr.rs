//! Compressed Sparse Row graph representation.

use crate::VertexId;

/// A directed graph in CSR form (paper §2.1.1, Fig. 5): `offsets[v]..offsets[v+1]`
/// indexes `edges` (neighbor IDs) and, when present, `values` (edge weights).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u64>,
    edges: Vec<VertexId>,
    values: Option<Vec<u32>>,
}

impl Csr {
    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> u64 {
        self.edges.len() as u64
    }

    /// Average out-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: VertexId) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Neighbors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.edges[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Edge weights of `v` (same order as [`Csr::neighbors`]), if weighted.
    pub fn weights(&self, v: VertexId) -> Option<&[u32]> {
        self.values.as_ref().map(|vals| {
            &vals[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
        })
    }

    /// The raw offset (vertex) array — what the paper calls the
    /// *vertex array*.
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The raw edge array.
    pub fn edges(&self) -> &[VertexId] {
        &self.edges
    }

    /// The raw values array, if weighted.
    pub fn values(&self) -> Option<&[u32]> {
        self.values.as_deref()
    }

    /// Whether the graph carries edge weights.
    pub fn is_weighted(&self) -> bool {
        self.values.is_some()
    }

    /// Byte sizes of the (vertex, edge, values) arrays as laid out by the
    /// workloads (u64 offsets, u32 edge IDs, u32 weights).
    pub fn array_bytes(&self) -> (u64, u64, u64) {
        (
            self.offsets.len() as u64 * 8,
            self.edges.len() as u64 * 4,
            self.values.as_ref().map_or(0, |v| v.len() as u64 * 4),
        )
    }

    /// Relabel vertices: `perm[old] = new`. Adjacency lists are re-sorted
    /// by new neighbor ID (as an offline preprocessing pipeline would);
    /// in a weighted graph, parallel edges are ordered by weight.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..num_vertices`.
    pub fn permuted(&self, perm: &[VertexId]) -> Csr {
        let n = self.num_vertices() as usize;
        assert_eq!(perm.len(), n, "permutation length mismatch");
        let mut inverse = vec![VertexId::MAX; n];
        for (old, &new) in perm.iter().enumerate() {
            assert!(
                (new as usize) < n && inverse[new as usize] == VertexId::MAX,
                "not a permutation"
            );
            inverse[new as usize] = old as VertexId;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut edges = Vec::with_capacity(self.edges.len());
        let mut values = self.values.as_ref().map(|v| Vec::with_capacity(v.len()));
        // Weighted lists sort (id, weight) pairs in one reused buffer.
        let mut pairs: Vec<(VertexId, u32)> = Vec::new();
        for &old_v in &inverse {
            let relabeled = self.neighbors(old_v).iter().map(|&u| perm[u as usize]);
            match (&mut values, self.weights(old_v)) {
                (Some(vals), Some(ws)) => {
                    pairs.clear();
                    pairs.extend(relabeled.zip(ws.iter().copied()));
                    pairs.sort_unstable();
                    edges.extend(pairs.iter().map(|&(u, _)| u));
                    vals.extend(pairs.iter().map(|&(_, w)| w));
                }
                _ => {
                    let start = edges.len();
                    edges.extend(relabeled);
                    edges[start..].sort_unstable();
                }
            }
            offsets.push(edges.len() as u64);
        }
        Csr {
            offsets,
            edges,
            values,
        }
    }

    /// Out-degrees of all vertices.
    pub fn degrees(&self) -> Vec<u64> {
        (0..self.num_vertices()).map(|v| self.degree(v)).collect()
    }

    /// Fraction of all edges incident (outgoing) to the `frac` highest-
    /// degree vertices — the "hot data" concentration the paper exploits
    /// (§5.1.1).
    pub fn hot_edge_fraction(&self, frac: f64) -> f64 {
        if self.num_edges() == 0 {
            return 0.0;
        }
        let mut deg = self.degrees();
        deg.sort_unstable_by(|a, b| b.cmp(a));
        let k = ((deg.len() as f64 * frac).ceil() as usize).min(deg.len());
        let hot: u64 = deg[..k].iter().sum();
        hot as f64 / self.num_edges() as f64
    }

    /// Verify structural invariants (offsets monotone, edge targets in
    /// range, values length matches). For tests; O(V+E).
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn validate(&self) {
        assert!(!self.offsets.is_empty());
        assert_eq!(self.offsets[0], 0);
        assert!(self.offsets.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(
            *self.offsets.last().expect("offsets checked non-empty"),
            self.num_edges()
        );
        let n = self.num_vertices();
        assert!(
            self.edges.iter().all(|&u| u < n),
            "edge target out of range"
        );
        if let Some(v) = &self.values {
            assert_eq!(v.len(), self.edges.len());
        }
    }
}

/// Incremental CSR builder: push edges vertex by vertex.
#[derive(Debug)]
pub struct CsrBuilder {
    offsets: Vec<u64>,
    edges: Vec<VertexId>,
    values: Option<Vec<u32>>,
    num_vertices: u32,
}

impl CsrBuilder {
    /// Builder for a graph of `num_vertices` vertices.
    pub fn new(num_vertices: u32, weighted: bool) -> Self {
        CsrBuilder {
            offsets: vec![0],
            edges: Vec::new(),
            values: weighted.then(Vec::new),
            num_vertices,
        }
    }

    /// Append one edge to the vertex currently being built.
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range.
    pub fn push_edge_to_last_vertex(&mut self, to: VertexId, weight: u32) {
        assert!(to < self.num_vertices, "edge target {to} out of range");
        self.edges.push(to);
        if let Some(vals) = &mut self.values {
            vals.push(weight);
        }
    }

    /// Close the adjacency list of the current vertex.
    pub fn finish_vertex(&mut self) {
        self.offsets.push(self.edges.len() as u64);
    }

    /// Build the CSR.
    ///
    /// # Panics
    ///
    /// Panics if the number of finished vertices differs from
    /// `num_vertices`.
    pub fn build(self) -> Csr {
        assert_eq!(
            self.offsets.len() as u64,
            self.num_vertices as u64 + 1,
            "finished {} of {} vertices",
            self.offsets.len() - 1,
            self.num_vertices
        );
        let csr = Csr {
            offsets: self.offsets,
            edges: self.edges,
            values: self.values,
        };
        csr.validate();
        csr
    }

    /// Build directly from an unsorted edge list (counting sort by source).
    /// `weight_of(i)` gives edge `i`'s weight; it is called once per edge,
    /// in index order.
    pub fn from_edge_list(
        num_vertices: u32,
        edges: &[(VertexId, VertexId)],
        mut weight_of: Option<&mut dyn FnMut(usize) -> u32>,
    ) -> Csr {
        let n = num_vertices as usize;
        let mut counts = vec![0u64; n + 1];
        for &(s, _) in edges {
            assert!((s as usize) < n, "edge source out of range");
            counts[s as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut edge_arr = vec![0 as VertexId; edges.len()];
        let mut values = weight_of.as_ref().map(|_| vec![0u32; edges.len()]);
        for (i, &(s, t)) in edges.iter().enumerate() {
            assert!((t as usize) < n, "edge target out of range");
            let pos = cursor[s as usize] as usize;
            cursor[s as usize] += 1;
            edge_arr[pos] = t;
            if let (Some(vals), Some(wf)) = (&mut values, &mut weight_of) {
                vals[pos] = wf(i);
            }
        }
        let csr = Csr {
            offsets,
            edges: edge_arr,
            values,
        };
        csr.validate();
        csr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 5 example network: 0→{1,2}, 1→{2}, 2→{0,3}, 3→{}.
    pub(crate) fn tiny() -> Csr {
        CsrBuilder::from_edge_list(
            4,
            &[(0, 1), (0, 2), (1, 2), (2, 0), (2, 3)],
            Some(&mut |i| (i as u32 + 1) * 10),
        )
    }

    #[test]
    fn structure_matches_edge_list() {
        let g = tiny();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!(g.neighbors(2), &[0, 3]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.weights(0).unwrap(), &[10, 20]);
        assert_eq!(g.offsets(), &[0, 2, 3, 5, 5]);
    }

    #[test]
    fn array_bytes_accounting() {
        let g = tiny();
        let (v, e, w) = g.array_bytes();
        assert_eq!(v, 5 * 8);
        assert_eq!(e, 5 * 4);
        assert_eq!(w, 5 * 4);
    }

    #[test]
    fn permutation_preserves_structure() {
        let g = tiny();
        // Reverse the IDs: perm[old] = 3 - old.
        let perm = vec![3, 2, 1, 0];
        let p = g.permuted(&perm);
        p.validate();
        assert_eq!(p.num_edges(), 5);
        // old 0 (→1,2) is now 3 (→2,1 sorted → 1,2).
        assert_eq!(p.neighbors(3), &[1, 2]);
        // old 2 (→0,3) is now 1 (→3,0 sorted → 0,3).
        assert_eq!(p.neighbors(1), &[0, 3]);
        // Weights follow their edges: old edge 2→0 weight 40.
        let w = p.weights(1).unwrap();
        // neighbors sorted: [0 (= old 3, weight 50), 3 (= old 0, weight 40)]
        assert_eq!(w, &[50, 40]);
    }

    #[test]
    fn identity_permutation_is_identity() {
        let g = tiny();
        let perm: Vec<u32> = (0..4).collect();
        assert_eq!(g.permuted(&perm), g);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn bad_permutation_panics() {
        tiny().permuted(&[0, 0, 1, 2]);
    }

    #[test]
    fn hot_edge_fraction_of_star() {
        // Star: vertex 0 → all others.
        let edges: Vec<(u32, u32)> = (1..100).map(|i| (0, i)).collect();
        let g = CsrBuilder::from_edge_list(100, &edges, None);
        assert!(g.hot_edge_fraction(0.01) > 0.99);
        assert!(!g.is_weighted());
    }

    #[test]
    fn builder_incremental_matches_edge_list() {
        let mut b = CsrBuilder::new(3, false);
        b.push_edge_to_last_vertex(1, 0);
        b.push_edge_to_last_vertex(2, 0);
        b.finish_vertex();
        b.finish_vertex();
        b.push_edge_to_last_vertex(0, 0);
        b.finish_vertex();
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[] as &[u32]);
        assert_eq!(g.neighbors(2), &[0]);
    }

    #[test]
    #[should_panic(expected = "finished")]
    fn unfinished_builder_panics() {
        let b = CsrBuilder::new(3, false);
        let _ = b.build();
    }
}
