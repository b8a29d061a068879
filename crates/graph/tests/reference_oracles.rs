//! The graph preparation layer against straightforward reference copies.
//!
//! The R-MAT sampler and `Csr::permuted` are written for speed: the
//! sampler derives its quadrant bits without branching on the draw, and
//! `permuted` sorts in place instead of building a list per vertex. The
//! references below are the plain versions they replaced, kept here
//! verbatim so the oracle never shares code with the fast path. Both
//! must produce the same bytes, because every cached graph, report
//! digest and config hash downstream depends on them.

use graphmem_graph::{reorder, Csr, CsrBuilder, RmatConfig, VertexId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The R-MAT generator with a four-way branch on every draw.
fn generate_reference(cfg: &RmatConfig) -> Csr {
    let n = cfg.num_vertices();
    let target = cfg.avg_degree as u64 * n as u64;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut edges = Vec::with_capacity(target as usize);
    for _ in 0..target {
        let (src, dst) = sample_edge_reference(cfg, &mut rng);
        if src != dst {
            edges.push((src, dst));
        }
    }
    if cfg.shuffle_ids {
        let perm = random_permutation_reference(n, &mut rng);
        for (s, t) in &mut edges {
            *s = perm[*s as usize];
            *t = perm[*t as usize];
        }
    }
    if cfg.weighted {
        let mut wrng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed);
        let weights: Vec<u32> = (0..edges.len())
            .map(|_| wrng.random_range(1..=255))
            .collect();
        CsrBuilder::from_edge_list(n, &edges, Some(&mut |i| weights[i]))
    } else {
        CsrBuilder::from_edge_list(n, &edges, None)
    }
}

fn sample_edge_reference(cfg: &RmatConfig, rng: &mut StdRng) -> (VertexId, VertexId) {
    let (mut src, mut dst) = (0u32, 0u32);
    let ab = cfg.a + cfg.b;
    let abc = ab + cfg.c;
    for _ in 0..cfg.scale {
        src <<= 1;
        dst <<= 1;
        let r: f64 = rng.random();
        if r < cfg.a {
            // top-left
        } else if r < ab {
            dst |= 1;
        } else if r < abc {
            src |= 1;
        } else {
            src |= 1;
            dst |= 1;
        }
    }
    (src, dst)
}

fn random_permutation_reference(n: u32, rng: &mut StdRng) -> Vec<VertexId> {
    let mut perm: Vec<VertexId> = (0..n).collect();
    for i in (1..n as usize).rev() {
        let j = rng.random_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

/// `Csr::permuted` building one `(id, weight)` list per vertex.
fn permuted_reference(g: &Csr, perm: &[VertexId]) -> Csr {
    let n = g.num_vertices() as usize;
    assert_eq!(perm.len(), n, "permutation length mismatch");
    let mut inverse = vec![VertexId::MAX; n];
    for (old, &new) in perm.iter().enumerate() {
        assert!(
            (new as usize) < n && inverse[new as usize] == VertexId::MAX,
            "not a permutation"
        );
        inverse[new as usize] = old as VertexId;
    }
    let mut builder = CsrBuilder::new(g.num_vertices(), g.is_weighted());
    for &old_v in inverse.iter().take(n) {
        let mut adj: Vec<(VertexId, u32)> = g
            .neighbors(old_v)
            .iter()
            .enumerate()
            .map(|(i, &u)| {
                let w = g.weights(old_v).map_or(0, |ws| ws[i]);
                (perm[u as usize], w)
            })
            .collect();
        adj.sort_unstable();
        for (u, w) in adj {
            builder.push_edge_to_last_vertex(u, w);
        }
        builder.finish_vertex();
    }
    builder.build()
}

/// Generator configurations with arbitrary quadrant odds: `a` in
/// `[0.05, 0.9)`, then `b` and `c` each take a share of what is left,
/// so `d = 1 - a - b - c` stays positive.
fn arb_rmat() -> impl Strategy<Value = RmatConfig> {
    (
        (0u8..=12, 1u32..16, any::<u64>()),
        (0.05f64..0.9, 0.0f64..0.9, 0.0f64..0.9),
        (any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |((scale, avg_degree, seed), (a, fb, fc), (shuffle_ids, weighted))| {
                let b = (1.0 - a) * fb;
                let c = (1.0 - a - b) * fc;
                RmatConfig {
                    scale,
                    avg_degree,
                    a,
                    b,
                    c,
                    shuffle_ids,
                    weighted,
                    seed,
                }
            },
        )
}

/// Small graphs dense in parallel edges: few vertices, many edges, and
/// weights from a tiny range, so lists hold repeated IDs with both equal
/// and different weights.
fn arb_multigraph() -> impl Strategy<Value = Csr> {
    (
        1u32..24,
        proptest::collection::vec((0u32..24, 0u32..24, 1u32..4), 0..200),
        any::<bool>(),
    )
        .prop_map(|(n, raw, weighted)| {
            let edges: Vec<(u32, u32)> = raw.iter().map(|&(s, t, _)| (s % n, t % n)).collect();
            if weighted {
                let ws: Vec<u32> = raw.iter().map(|&(_, _, w)| w).collect();
                CsrBuilder::from_edge_list(n, &edges, Some(&mut |i| ws[i]))
            } else {
                CsrBuilder::from_edge_list(n, &edges, None)
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The branch-free sampler draws the same graph as the branchy one.
    #[test]
    fn generate_matches_branchy_reference(cfg in arb_rmat()) {
        let fast = cfg.generate();
        prop_assert_eq!(fast, generate_reference(&cfg), "{:?}", cfg);
    }

    /// In-place relabelling matches per-vertex list building, parallel
    /// edges and weights included.
    #[test]
    fn permuted_matches_per_vertex_reference(g in arb_multigraph(), seed in any::<u64>()) {
        for perm in [
            reorder::random_order(&g, seed),
            reorder::degree_based_grouping(&g),
            (0..g.num_vertices()).collect(),
        ] {
            prop_assert_eq!(g.permuted(&perm), permuted_reference(&g, &perm));
        }
    }
}
