//! R-MAT / Kronecker synthetic power-law graph generation.
//!
//! Every edge is drawn from one serial [`StdRng`] stream, so a graph is a
//! pure function of its [`RmatConfig`]. (The stream is SplitMix64, so a
//! chunked generator could jump to each chunk's first draw and produce
//! the same bytes in parallel; on a 2-core host a two-thread version was
//! slower than this serial one, 63.5 against 43.1 ms at kron scale 16.)

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::csr::{Csr, CsrBuilder};
use crate::VertexId;

/// R-MAT generator configuration.
///
/// R-MAT recursively subdivides the adjacency matrix into quadrants with
/// probabilities `(a, b, c, d)`; `a > d` concentrates edges on low vertex
/// IDs, producing the power-law degree distribution of real networks with
/// hubs clustered at low IDs — like a crawl-ordered Twitter graph. Setting
/// `shuffle_ids` applies a random relabeling afterwards, which destroys
/// that ID↔degree correlation — like the Graph500 Kronecker inputs the
/// paper uses ("networks with little to no community structure", §5.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatConfig {
    /// log2 of the vertex count.
    pub scale: u8,
    /// Average out-degree (edges generated = degree × vertices).
    pub avg_degree: u32,
    /// Quadrant probability a (top-left).
    pub a: f64,
    /// Quadrant probability b (top-right).
    pub b: f64,
    /// Quadrant probability c (bottom-left).
    pub c: f64,
    /// Randomly permute vertex IDs afterwards.
    pub shuffle_ids: bool,
    /// Attach uniform random edge weights in `1..=255` (for SSSP).
    pub weighted: bool,
    /// RNG seed (the generator is fully deterministic).
    pub seed: u64,
}

impl Default for RmatConfig {
    fn default() -> Self {
        RmatConfig {
            scale: 16,
            avg_degree: 16,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            shuffle_ids: false,
            weighted: false,
            seed: 42,
        }
    }
}

impl RmatConfig {
    /// Number of vertices this configuration generates.
    pub fn num_vertices(&self) -> u32 {
        1u32 << self.scale
    }

    /// Generate the graph.
    ///
    /// Self-loops are dropped; duplicate edges are kept (as in the
    /// reference R-MAT formulation), so the realized edge count is slightly
    /// below `avg_degree << scale`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` exceeds 31 or the probabilities are degenerate.
    pub fn generate(&self) -> Csr {
        assert!(self.scale <= 31, "scale too large for u32 vertex ids");
        let d = 1.0 - self.a - self.b - self.c;
        assert!(
            self.a > 0.0 && self.b >= 0.0 && self.c >= 0.0 && d > 0.0,
            "degenerate R-MAT probabilities"
        );
        let n = self.num_vertices();
        let target = self.avg_degree as u64 * n as u64;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut edges = Vec::with_capacity(target as usize);
        for _ in 0..target {
            let (src, dst) = self.sample_edge(&mut rng);
            if src != dst {
                edges.push((src, dst));
            }
        }
        if self.shuffle_ids {
            let perm = random_permutation(n, &mut rng);
            for (s, t) in &mut edges {
                *s = perm[*s as usize];
                *t = perm[*t as usize];
            }
        }
        if self.weighted {
            // Edge i's weight is draw i: `from_edge_list` asks for weights
            // in index order, so each is drawn as it is placed.
            let mut wrng = StdRng::seed_from_u64(self.seed ^ 0x5eed);
            CsrBuilder::from_edge_list(n, &edges, Some(&mut |_| wrng.random_range(1..=255)))
        } else {
            CsrBuilder::from_edge_list(n, &edges, None)
        }
    }

    /// One R-MAT edge: `scale` draws, each picking a quadrant.
    ///
    /// Both quadrant bits come from comparisons on the same draw `r`, with
    /// no branch on it: the source bit is set in the bottom half
    /// (`r >= a+b`), the destination bit in the right half
    /// (`a <= r < a+b` or `r >= a+b+c`). The draws are random, so a
    /// four-way branch on `r` would be mispredicted on a large share of
    /// them.
    ///
    /// The comparisons are on integers. A uniform `f64` draw is
    /// `r = m · 2^-53` exactly, for `m` the top 53 bits of the next `u64`,
    /// so `r >= t` holds exactly when `m >= ceil(t · 2^53)`; the thresholds
    /// are taken from the same rounded `a`, `a+b` and `a+b+c` the float
    /// form compares against, so the edges are the same.
    fn sample_edge(&self, rng: &mut StdRng) -> (VertexId, VertexId) {
        let (mut src, mut dst) = (0u32, 0u32);
        let threshold = |t: f64| (t * UNIT_STEPS).ceil() as u64;
        let [a, ab, abc] = [self.a, self.a + self.b, self.a + self.b + self.c].map(threshold);
        for _ in 0..self.scale {
            let m = rng.next_u64() >> 11;
            let bottom = m >= ab;
            let right = (m >= a) & !bottom | (m >= abc);
            src = src << 1 | u32::from(bottom);
            dst = dst << 1 | u32::from(right);
        }
        (src, dst)
    }
}

/// `2^53`: the number of distinct values of a uniform `f64` draw in
/// `[0, 1)`.
const UNIT_STEPS: f64 = (1u64 << 53) as f64;

/// A uniform random permutation of `0..n` (Fisher–Yates).
pub(crate) fn random_permutation(n: u32, rng: &mut StdRng) -> Vec<VertexId> {
    let mut perm: Vec<VertexId> = (0..n).collect();
    for i in (1..n as usize).rev() {
        let j = rng.random_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(shuffle: bool) -> Csr {
        RmatConfig {
            scale: 12,
            avg_degree: 8,
            shuffle_ids: shuffle,
            ..RmatConfig::default()
        }
        .generate()
    }

    #[test]
    fn generates_roughly_target_edges() {
        let g = small(false);
        g.validate();
        assert_eq!(g.num_vertices(), 4096);
        let target = 8 * 4096;
        assert!(g.num_edges() > target * 9 / 10, "{}", g.num_edges());
        assert!(g.num_edges() <= target);
    }

    #[test]
    fn determinism() {
        let a = small(false);
        let b = small(false);
        assert_eq!(a, b);
    }

    #[test]
    fn seeds_differ() {
        let a = small(false);
        let b = RmatConfig {
            scale: 12,
            avg_degree: 8,
            seed: 7,
            ..RmatConfig::default()
        }
        .generate();
        assert_ne!(a, b);
    }

    #[test]
    fn power_law_concentration() {
        let g = small(false);
        // Top 1% of vertices should hold a disproportionate share of edges.
        let hot = g.hot_edge_fraction(0.01);
        assert!(hot > 0.10, "hot fraction {hot}");
    }

    #[test]
    fn unshuffled_hubs_cluster_at_low_ids() {
        let g = small(false);
        let degs = g.degrees();
        let n = degs.len();
        let low: u64 = degs[..n / 16].iter().sum();
        let high: u64 = degs[n - n / 16..].iter().sum();
        assert!(
            low > 3 * high,
            "low-ID 1/16th has {low} edges vs high-ID {high}"
        );
    }

    #[test]
    fn shuffling_destroys_id_degree_correlation() {
        let g = small(true);
        g.validate();
        let degs = g.degrees();
        let n = degs.len();
        let low: u64 = degs[..n / 4].iter().sum();
        let total: u64 = degs.iter().sum();
        let share = low as f64 / total as f64;
        assert!((share - 0.25).abs() < 0.08, "low-quarter share {share}");
    }

    #[test]
    fn weighted_generation() {
        let g = RmatConfig {
            scale: 10,
            avg_degree: 4,
            weighted: true,
            ..RmatConfig::default()
        }
        .generate();
        let w = g.values().unwrap();
        assert_eq!(w.len() as u64, g.num_edges());
        assert!(w.iter().all(|&x| (1..=255).contains(&x)));
    }

    #[test]
    fn no_self_loops() {
        let g = small(false);
        for v in 0..g.num_vertices() {
            assert!(!g.neighbors(v).contains(&v), "self loop at {v}");
        }
    }

    #[test]
    fn permutation_helper_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = random_permutation(100, &mut rng);
        let mut seen = [false; 100];
        for &x in &p {
            assert!(!seen[x as usize]);
            seen[x as usize] = true;
        }
    }
}
