//! Property-based tests for the graph substrate.

use graphmem_graph::{reorder, Csr, CsrBuilder, RmatConfig};
use proptest::prelude::*;

/// Arbitrary small graphs from random edge lists (possibly weighted).
fn arb_graph() -> impl Strategy<Value = Csr> {
    (
        2u32..64,
        proptest::collection::vec((0u32..64, 0u32..64, 1u32..256), 0..256),
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every reordering yields a valid graph with identical degree
    /// multiset and edge count, and permuting twice with inverse-composed
    /// permutations is the identity.
    #[test]
    fn reorderings_preserve_structure(g in arb_graph(), seed in any::<u64>()) {
        for perm in [
            reorder::degree_based_grouping(&g),
            reorder::degree_sort(&g),
            reorder::random_order(&g, seed),
        ] {
            let p = g.permuted(&perm);
            p.validate();
            prop_assert_eq!(p.num_edges(), g.num_edges());
            let mut d1 = g.degrees();
            let mut d2 = p.degrees();
            d1.sort_unstable();
            d2.sort_unstable();
            prop_assert_eq!(d1, d2, "degree multiset changed");
            // Apply the inverse: must give back the original (up to
            // adjacency sort order, which permuted() normalizes).
            let mut inv = vec![0u32; perm.len()];
            for (old, &new) in perm.iter().enumerate() {
                inv[new as usize] = old as u32;
            }
            let back = p.permuted(&inv);
            let sorted_original = g.permuted(&(0..g.num_vertices()).collect::<Vec<_>>());
            prop_assert_eq!(back, sorted_original);
        }
    }

    /// R-MAT generation is deterministic and within the edge budget for
    /// arbitrary parameters.
    #[test]
    fn rmat_determinism_and_budget(
        scale in 4u8..10,
        degree in 1u32..8,
        seed in any::<u64>(),
        shuffle in any::<bool>(),
    ) {
        let cfg = RmatConfig {
            scale,
            avg_degree: degree,
            shuffle_ids: shuffle,
            seed,
            ..RmatConfig::default()
        };
        let a = cfg.generate();
        let b = cfg.generate();
        prop_assert_eq!(&a, &b);
        a.validate();
        prop_assert!(a.num_edges() <= degree as u64 * a.num_vertices() as u64);
    }
}
