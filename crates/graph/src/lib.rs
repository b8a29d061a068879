//! # graphmem-graph — CSR graphs, generators, and degree-aware reordering
//!
//! The graph substrate of the reproduction:
//!
//! * [`Csr`] — the Compressed Sparse Row representation the paper's
//!   workloads use (§2.1.1): a vertex-offset array, an edge array, and an
//!   optional edge-values array.
//! * [`RmatConfig`] — a Kronecker/R-MAT synthetic power-law generator, with
//!   controls for ID↔degree correlation that emulate the structural
//!   differences between the paper's four inputs (Table 2): the Kronecker
//!   network's shuffled IDs vs. the natural hub clustering of the Twitter /
//!   Wikipedia crawls.
//! * [`Dataset`] — scaled-down analogues of the paper's four inputs.
//! * [`reorder`] — Degree-Based Grouping (Faldu et al., the preprocessing
//!   step of paper §5.1.2) plus full degree sorting and random permutation
//!   for ablation.
//!
//! Everything is deterministic given a seed.
//!
//! ## Example
//!
//! ```
//! use graphmem_graph::{reorder, Dataset};
//!
//! let graph = Dataset::Wiki.generate_with_scale(12); // tiny for the doctest
//! assert!(graph.num_edges() > 0);
//! let perm = reorder::degree_based_grouping(&graph);
//! let regrouped = graph.permuted(&perm);
//! assert_eq!(regrouped.num_edges(), graph.num_edges());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod csr;
mod dataset;
mod generate;
pub mod reorder;

pub use csr::{Csr, CsrBuilder};
pub use dataset::Dataset;
pub use generate::RmatConfig;

/// Vertex identifier. Graphs are limited to `u32::MAX` vertices, which the
/// scaled datasets never approach.
pub type VertexId = u32;
