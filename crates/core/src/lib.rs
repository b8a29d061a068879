//! # graphmem-core — application-aware page size management for graph analytics
//!
//! The top-level library of the **graphmem** reproduction of
//! *"The Implications of Page Size Management on Graph Analytics"*
//! (Manocha et al., IISWC 2022). It packages the paper's contribution —
//! domain-specific transparent-huge-page (THP) management for graph
//! workloads — as a reusable API on top of the simulated
//! machine/OS/graph substrates:
//!
//! * [`PagePolicy`] — the page-size strategies the paper evaluates, from
//!   the 4 KiB baseline through system-wide THP, per-data-structure THP
//!   (Fig. 5), and **selective THP** (`madvise` on the first *s*% of the
//!   property array, §5.2).
//! * [`Preprocessing`] — Degree-Based Grouping and ablation reorderings
//!   coupled with the page policy (§5.1).
//! * [`MemoryCondition`] — reproducible memory pressure (memhog),
//!   non-movable fragmentation (the `frag` utility), and movable
//!   background noise, matching the paper's §4.3–4.4 methodology.
//! * [`Experiment`] — one measured run: a [`RunSpec`] (dataset, kernel,
//!   policy, memory condition, …) plus run-local knobs, set through
//!   chained setters and returning a [`RunReport`] with runtimes, TLB
//!   miss rates, and huge-page usage.
//! * [`claims`] — the paper's figures and tables as executable claims:
//!   one registry of experiment grids, CSV projections and predicates,
//!   run deduplicated through the supervisor.
//! * [`sweep`] — the paper's sensitivity ladders and the all-or-nothing
//!   parallel runner.
//! * [`supervisor`] — fault-tolerant sweep orchestration: panic
//!   isolation, retry with backoff, watchdog timeouts, JSONL
//!   checkpoint/resume manifests, and deterministic fault injection.
//!
//! * [`spec`] — the typed [`RunSpec`] description every frontend (CLI
//!   flags, the experiment service's JSON API) lowers through, with exact
//!   JSON round-tripping and one shared `config_hash` site.
//! * [`graphcache`] — the process-wide size-bounded LRU cache of prepared
//!   (generated + reordered) input graphs shared by sweeps and service
//!   workers.
//!
//! ## Quickstart
//!
//! ```
//! use graphmem_core::prelude::*;
//!
//! let baseline = Experiment::builder(Dataset::Wiki, Kernel::Bfs)
//!     .scale(10) // tiny graph for the doctest
//!     .policy(PagePolicy::BaseOnly)
//!     .build()
//!     .expect("valid configuration")
//!     .run();
//! let thp = Experiment::builder(Dataset::Wiki, Kernel::Bfs)
//!     .scale(10)
//!     .policy(PagePolicy::ThpSystemWide)
//!     .build()
//!     .expect("valid configuration")
//!     .run();
//! assert!(thp.verified && baseline.verified);
//! assert!(thp.compute_cycles <= baseline.compute_cycles);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod attribution;
pub mod autotune;
pub mod breaker;
pub mod claims;
mod condition;
pub mod durable;
mod error;
mod experiment;
pub mod graphcache;
pub mod memostats;
mod plan;
mod policy;
mod report;
pub mod spec;
pub mod supervisor;
pub mod sweep;

pub use attribution::{AttributionReport, RegionReport};
pub use autotune::HotnessProfile;
pub use breaker::{BreakerConfig, BreakerDecision, BreakerSnapshot, CircuitBreakers};
pub use condition::{MemoryCondition, Surplus};
pub use durable::{DurableAppender, FsyncPolicy, IoFaultKind, IoFaultPlan};
pub use error::GraphmemError;
pub use experiment::Experiment;
pub use graphcache::PreparedGraphCache;
pub use graphmem_os::GovernorConfig;
pub use plan::PageSizePlan;
pub use policy::{PagePolicy, Preprocessing};
pub use report::{GovernorReport, RunReport};
pub use spec::{RunSpec, SweepKind};
pub use supervisor::{
    read_manifest, run_supervised, supervise_one, FailureRecord, FaultPlan, FaultSpec,
    SupervisorConfig, SweepOutcome,
};

/// One-line import of the experiment-building surface:
/// `use graphmem_core::prelude::*;` brings in everything needed to
/// describe, build, and run an experiment — including the dataset and
/// kernel enums re-exported from the substrate crates, so examples and
/// downstream code don't need multi-line import blocks.
pub mod prelude {
    pub use crate::attribution::{AttributionReport, RegionReport};
    pub use crate::condition::{MemoryCondition, Surplus};
    pub use crate::error::GraphmemError;
    pub use crate::experiment::Experiment;
    pub use crate::plan::PageSizePlan;
    pub use crate::policy::{PagePolicy, Preprocessing};
    pub use crate::report::{GovernorReport, RunReport};
    pub use crate::spec::{RunSpec, SweepKind};
    pub use graphmem_graph::Dataset;
    pub use graphmem_os::{FilePlacement, GovernorConfig};
    pub use graphmem_workloads::{AllocOrder, Kernel};
}
