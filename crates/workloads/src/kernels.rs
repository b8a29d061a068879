//! The paper's three kernels: push-based, frontier-driven BFS, PageRank,
//! and SSSP (§3.2), each in simulated and native form.
//!
//! The inner loops follow the pseudocode of paper Fig. 4: pop a vertex
//! from the worklist, read its offsets from the vertex array, stream its
//! neighbors from the edge array (and weights from the values array), and
//! conditionally read-modify-write the property array at each neighbor —
//! the pointer-indirect access highlighted as the memory-system
//! bottleneck.

use std::collections::VecDeque;

use graphmem_graph::{Csr, VertexId};
use graphmem_os::{SteadyEpoch, System};

use crate::arrays::GraphArrays;

/// Unvisited marker for BFS/SSSP distances.
pub const UNVISITED: u64 = u64::MAX;

/// PageRank damping factor.
const PR_DAMPING: f64 = 0.85;
/// PageRank convergence threshold (ε of §3.2).
const PR_EPSILON: f64 = 1e-4;
/// PageRank iteration cap. The paper iterates to convergence; at
/// simulation scale the ranking stabilizes qualitatively within a few
/// passes and the memory behaviour is identical every pass, so we bound
/// the work (documented in DESIGN.md).
const PR_MAX_ITERS: u32 = 6;

/// One of the paper's three applications, or an extension kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Breadth-First Search: minimum hop counts from a root.
    Bfs,
    /// PageRank: iterative rank propagation until convergence.
    Pagerank,
    /// Single-Source Shortest Paths: minimum weighted distances.
    Sssp,
    /// Connected Components via min-label propagation (extension: the
    /// paper cites CC as one of the applications built on BFS, §3.2).
    /// Labels propagate along out-edges to a fixpoint, so on directed
    /// inputs this computes forward-reachability components.
    Cc,
}

impl Kernel {
    /// The paper's three applications, in its order (figure benches
    /// iterate these).
    pub const ALL: [Kernel; 3] = [Kernel::Bfs, Kernel::Pagerank, Kernel::Sssp];

    /// The paper's kernels plus the extension kernels.
    pub const EXTENDED: [Kernel; 4] = [Kernel::Bfs, Kernel::Pagerank, Kernel::Sssp, Kernel::Cc];

    /// Short name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Bfs => "bfs",
            Kernel::Pagerank => "pr",
            Kernel::Sssp => "sssp",
            Kernel::Cc => "cc",
        }
    }

    /// Whether the kernel reads the values (weight) array.
    pub fn needs_weights(&self) -> bool {
        matches!(self, Kernel::Sssp)
    }

    /// Names of the property arrays the kernel updates.
    pub fn property_names(&self) -> &'static [&'static str] {
        match self {
            Kernel::Bfs | Kernel::Sssp | Kernel::Cc => &["property_array"],
            Kernel::Pagerank => &["property_array", "property_array_next"],
        }
    }

    /// Run the kernel through the simulator. Returns the property array
    /// contents (distances, or PageRank scores as `f64::to_bits`),
    /// identical to what [`Kernel::run_native`] returns.
    pub fn run_simulated(
        &self,
        sys: &mut System,
        arrays: &mut GraphArrays,
        root: VertexId,
    ) -> Vec<u64> {
        match self {
            Kernel::Bfs => bfs_simulated(sys, arrays, root),
            Kernel::Pagerank => pagerank_simulated(sys, arrays),
            Kernel::Sssp => sssp_simulated(sys, arrays, root),
            Kernel::Cc => cc_simulated(sys, arrays),
        }
    }

    /// Reference implementation on the host (no simulation).
    pub fn run_native(&self, csr: &Csr, root: VertexId) -> Vec<u64> {
        match self {
            Kernel::Bfs => bfs_native(csr, root),
            Kernel::Pagerank => pagerank_native(csr),
            Kernel::Sssp => sssp_native(csr, root),
            Kernel::Cc => cc_native(csr),
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The highest-out-degree vertex: a root that reaches a large component,
/// used by all experiments for determinism.
pub fn default_root(csr: &Csr) -> VertexId {
    (0..csr.num_vertices())
        .max_by_key(|&v| csr.degree(v))
        .unwrap_or(0)
}

// ----------------------------------------------------------------------
// BFS
// ----------------------------------------------------------------------

fn bfs_simulated(sys: &mut System, arrays: &mut GraphArrays, root: VertexId) -> Vec<u64> {
    let n = arrays.vertex.len() - 1;
    // Distances start UNVISITED; the property array was zero-initialized,
    // so write the sentinel sweep as the algorithm's setup pass.
    arrays.prop[0].scan_write_with(sys, 0, n, |_| UNVISITED);
    let mut queue = VecDeque::new();
    arrays.prop[0].set(sys, root as usize, 0);
    queue.push_back(root);
    while let Some(v) = queue.pop_front() {
        let dv = arrays.prop[0].get(sys, v as usize);
        let off = arrays.vertex.scan(sys, v as usize, 2);
        let (start, end) = (off[0] as usize, off[1] as usize);
        let nbrs = arrays.edge.scan(sys, start, end - start);
        for &u in nbrs {
            // The pointer-indirect read that dominates TLB misses:
            if arrays.prop[0].get(sys, u as usize) == UNVISITED {
                arrays.prop[0].set(sys, u as usize, dv + 1);
                queue.push_back(u);
            }
        }
    }
    arrays.prop[0].host_data().to_vec()
}

fn bfs_native(csr: &Csr, root: VertexId) -> Vec<u64> {
    let n = csr.num_vertices() as usize;
    let mut dist = vec![UNVISITED; n];
    let mut queue = VecDeque::new();
    dist[root as usize] = 0;
    queue.push_back(root);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v as usize];
        for &u in csr.neighbors(v) {
            if dist[u as usize] == UNVISITED {
                dist[u as usize] = dv + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

// ----------------------------------------------------------------------
// PageRank (push-based, damped, fixed ε / iteration cap)
// ----------------------------------------------------------------------

fn pagerank_simulated(sys: &mut System, arrays: &mut GraphArrays) -> Vec<u64> {
    let n = arrays.vertex.len() - 1;
    let init = 1.0 / n as f64;
    arrays.prop[0].scan_write_with(sys, 0, n, |_| init.to_bits());
    // Every iteration issues the same accesses (all edges, both sweeps),
    // whatever the ranks are, so steady iterations replay (see
    // `System::steady_epoch`).
    let mut record = SteadyEpoch::default();
    for _iter in 0..PR_MAX_ITERS {
        let delta = sys.steady_epoch(&mut record, |sys| {
            let base = (1.0 - PR_DAMPING) / n as f64;
            arrays.prop[1].scan_write_with(sys, 0, n, |_| base.to_bits());
            for v in 0..n {
                let off = arrays.vertex.scan(sys, v, 2);
                let (start, end) = (off[0] as usize, off[1] as usize);
                if start == end {
                    continue;
                }
                let rank = f64::from_bits(arrays.prop[0].get(sys, v));
                let contrib = PR_DAMPING * rank / (end - start) as f64;
                let nbrs = arrays.edge.scan(sys, start, end - start);
                // Pointer-indirect read-modify-write:
                arrays.prop[1]
                    .gather_update(sys, nbrs, |cur| (f64::from_bits(cur) + contrib).to_bits());
            }
            // Convergence sweep (sequential reads of both arrays).
            let mut delta = 0.0;
            for v in 0..n {
                let old = f64::from_bits(arrays.prop[0].get(sys, v));
                let new = f64::from_bits(arrays.prop[1].get(sys, v));
                delta += (new - old).abs();
                arrays.prop[0].set(sys, v, new.to_bits());
            }
            delta
        });
        if delta < PR_EPSILON {
            break;
        }
    }
    arrays.prop[0].host_data().to_vec()
}

fn pagerank_native(csr: &Csr) -> Vec<u64> {
    let n = csr.num_vertices() as usize;
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    for _iter in 0..PR_MAX_ITERS {
        let base = (1.0 - PR_DAMPING) / n as f64;
        next.iter_mut().for_each(|x| *x = base);
        for v in 0..n as u32 {
            let nbrs = csr.neighbors(v);
            if nbrs.is_empty() {
                continue;
            }
            let contrib = PR_DAMPING * rank[v as usize] / nbrs.len() as f64;
            for &u in nbrs {
                next[u as usize] += contrib;
            }
        }
        let mut delta = 0.0;
        for v in 0..n {
            delta += (next[v] - rank[v]).abs();
            rank[v] = next[v];
        }
        if delta < PR_EPSILON {
            break;
        }
    }
    rank.into_iter().map(f64::to_bits).collect()
}

// ----------------------------------------------------------------------
// SSSP (Bellman-Ford with an SPFA-style worklist)
// ----------------------------------------------------------------------

fn sssp_simulated(sys: &mut System, arrays: &mut GraphArrays, root: VertexId) -> Vec<u64> {
    let n = arrays.vertex.len() - 1;
    arrays.prop[0].scan_write_with(sys, 0, n, |_| UNVISITED);
    let mut queue = VecDeque::new();
    let mut in_queue = vec![false; n];
    arrays.prop[0].set(sys, root as usize, 0);
    queue.push_back(root);
    in_queue[root as usize] = true;
    while let Some(v) = queue.pop_front() {
        in_queue[v as usize] = false;
        let dv = arrays.prop[0].get(sys, v as usize);
        let off = arrays.vertex.scan(sys, v as usize, 2);
        let (start, end) = (off[0] as usize, off[1] as usize);
        let nbrs = arrays.edge.scan(sys, start, end - start);
        let weights = arrays
            .values
            .as_ref()
            .expect("SSSP arrays carry weights")
            .scan(sys, start, end - start);
        for (k, &u) in nbrs.iter().enumerate() {
            let u = u as usize;
            let nd = dv + weights[k] as u64;
            if nd < arrays.prop[0].get(sys, u) {
                arrays.prop[0].set(sys, u, nd);
                if !in_queue[u] {
                    in_queue[u] = true;
                    queue.push_back(u as VertexId);
                }
            }
        }
    }
    arrays.prop[0].host_data().to_vec()
}

fn sssp_native(csr: &Csr, root: VertexId) -> Vec<u64> {
    let n = csr.num_vertices() as usize;
    let mut dist = vec![UNVISITED; n];
    let mut queue = VecDeque::new();
    let mut in_queue = vec![false; n];
    dist[root as usize] = 0;
    queue.push_back(root);
    in_queue[root as usize] = true;
    while let Some(v) = queue.pop_front() {
        in_queue[v as usize] = false;
        let dv = dist[v as usize];
        let weights = csr.weights(v).expect("SSSP requires weights");
        for (i, &u) in csr.neighbors(v).iter().enumerate() {
            let nd = dv + weights[i] as u64;
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                if !in_queue[u as usize] {
                    in_queue[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    dist
}

// ----------------------------------------------------------------------
// Connected Components (min-label propagation)
// ----------------------------------------------------------------------

fn cc_simulated(sys: &mut System, arrays: &mut GraphArrays) -> Vec<u64> {
    let n = arrays.vertex.len() - 1;
    let mut queue: VecDeque<VertexId> = VecDeque::with_capacity(n);
    let mut in_queue = vec![true; n];
    arrays.prop[0].scan_write_with(sys, 0, n, |v| v as u64);
    queue.extend(0..n as VertexId);
    while let Some(v) = queue.pop_front() {
        in_queue[v as usize] = false;
        let lv = arrays.prop[0].get(sys, v as usize);
        let off = arrays.vertex.scan(sys, v as usize, 2);
        let (start, end) = (off[0] as usize, off[1] as usize);
        let nbrs = arrays.edge.scan(sys, start, end - start);
        for &u in nbrs {
            let u = u as usize;
            if lv < arrays.prop[0].get(sys, u) {
                arrays.prop[0].set(sys, u, lv);
                if !in_queue[u] {
                    in_queue[u] = true;
                    queue.push_back(u as VertexId);
                }
            }
        }
    }
    arrays.prop[0].host_data().to_vec()
}

fn cc_native(csr: &Csr) -> Vec<u64> {
    let n = csr.num_vertices() as usize;
    let mut label: Vec<u64> = (0..n as u64).collect();
    let mut queue: VecDeque<VertexId> = (0..n as VertexId).collect();
    let mut in_queue = vec![true; n];
    while let Some(v) = queue.pop_front() {
        in_queue[v as usize] = false;
        let lv = label[v as usize];
        for &u in csr.neighbors(v) {
            if lv < label[u as usize] {
                label[u as usize] = lv;
                if !in_queue[u as usize] {
                    in_queue[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrays::AllocOrder;
    use graphmem_graph::Dataset;
    use graphmem_os::{SystemSpec, ThpMode};

    fn run_both(kernel: Kernel, weighted: bool, mode: ThpMode) -> (Vec<u64>, Vec<u64>) {
        let csr = if weighted {
            Dataset::Wiki.generate_weighted_with_scale(10)
        } else {
            Dataset::Wiki.generate_with_scale(10)
        };
        let mut spec = SystemSpec::scaled_demo();
        spec.thp.mode = mode;
        let mut sys = System::new(spec);
        let mut arrays = GraphArrays::map(&mut sys, &csr, kernel);
        arrays.initialize(&mut sys, AllocOrder::Natural);
        let root = default_root(&csr);
        let sim = kernel.run_simulated(&mut sys, &mut arrays, root);
        let native = kernel.run_native(&csr, root);
        (sim, native)
    }

    #[test]
    fn bfs_simulated_matches_native() {
        let (sim, native) = run_both(Kernel::Bfs, false, ThpMode::Never);
        assert_eq!(sim, native);
        assert!(native.iter().filter(|&&d| d != UNVISITED).count() > 100);
    }

    #[test]
    fn bfs_matches_under_thp_always() {
        let (sim, native) = run_both(Kernel::Bfs, false, ThpMode::Always);
        assert_eq!(sim, native);
    }

    #[test]
    fn pagerank_simulated_matches_native_bit_exact() {
        let (sim, native) = run_both(Kernel::Pagerank, false, ThpMode::Never);
        assert_eq!(sim, native);
        // Dangling vertices leak rank mass; how much depends on the exact
        // R-MAT instance, so keep this a loose sanity bound.
        let total: f64 = sim.iter().map(|&b| f64::from_bits(b)).sum();
        assert!((total - 1.0).abs() < 0.25, "rank mass {total}");
    }

    #[test]
    fn sssp_simulated_matches_native() {
        let (sim, native) = run_both(Kernel::Sssp, true, ThpMode::Never);
        assert_eq!(sim, native);
    }

    #[test]
    fn sssp_distances_bounded_by_bfs_hops_times_max_weight() {
        let csr = Dataset::Wiki.generate_weighted_with_scale(9);
        let root = default_root(&csr);
        let hops = Kernel::Bfs.run_native(
            &{
                // Same structure, unweighted view.
                csr.clone()
            },
            root,
        );
        let dist = Kernel::Sssp.run_native(&csr, root);
        for v in 0..dist.len() {
            if hops[v] == UNVISITED {
                assert_eq!(dist[v], UNVISITED);
            } else {
                assert!(dist[v] <= hops[v].saturating_mul(255));
            }
        }
    }

    #[test]
    fn cc_simulated_matches_native() {
        let (sim, native) = run_both(Kernel::Cc, false, ThpMode::Always);
        assert_eq!(sim, native);
        // Labels are fixpoints: no vertex can lower its label further.
        let csr = Dataset::Wiki.generate_with_scale(10);
        for v in 0..csr.num_vertices() {
            for &u in csr.neighbors(v) {
                assert!(native[u as usize] <= native[v as usize]);
            }
        }
    }

    #[test]
    fn cc_labels_are_component_representatives() {
        let csr = Dataset::Wiki.generate_with_scale(9);
        let labels = Kernel::Cc.run_native(&csr, 0);
        // Every label is a vertex id that labels itself.
        for &l in &labels {
            assert_eq!(labels[l as usize], l, "label {l} is not a root");
        }
    }

    #[test]
    fn default_root_is_max_degree() {
        let csr = Dataset::Wiki.generate_with_scale(9);
        let root = default_root(&csr);
        let max = (0..csr.num_vertices())
            .map(|v| csr.degree(v))
            .max()
            .unwrap();
        assert_eq!(csr.degree(root), max);
    }

    #[test]
    fn property_array_dominates_irregular_accesses() {
        let csr = Dataset::Kron25.generate_with_scale(11);
        let mut sys = System::new(SystemSpec::scaled_demo());
        let mut arrays = GraphArrays::map(&mut sys, &csr, Kernel::Bfs);
        arrays.initialize(&mut sys, AllocOrder::Natural);
        let root = default_root(&csr);
        Kernel::Bfs.run_simulated(&mut sys, &mut arrays, root);
        let profile = arrays.profile();
        let prop = profile.array("property_array").unwrap();
        let edge = profile.array("edge_array").unwrap();
        // Fig. 4's observation: edge and property arrays take the most
        // accesses; the property array's are irregular, the edge array's
        // sequential.
        assert!(prop.irregularity() > 0.5, "{}", prop.irregularity());
        assert!(edge.irregularity() < 0.35, "{}", edge.irregularity());
        assert!(prop.accesses() > profile.array("vertex_array").unwrap().accesses() / 2);
    }
}
