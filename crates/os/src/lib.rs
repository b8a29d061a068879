//! # graphmem-os — a simulated Linux-like memory-management kernel
//!
//! This crate is the "operating system" of the graphmem stack. It owns the
//! NUMA zones ([`graphmem_physmem::Zone`]), a process address space (VMAs +
//! page table), and an MMU ([`graphmem_vm::MemorySystem`]), and implements
//! the kernel policies whose interaction the paper characterizes:
//!
//! * **Demand paging** — first-touch page faults allocate frames and map
//!   them, charging realistic cycle costs.
//! * **Transparent Huge Pages** — fault-time huge allocation under the
//!   `never` / `always` / `madvise` modes of Linux's THP policy, including
//!   per-range `madvise(MADV_HUGEPAGE)` (the mechanism behind the paper's
//!   *selective THP*, §5.2).
//! * **Direct compaction** — bounded fault-time migration of movable pages
//!   to manufacture contiguous huge regions, with per-page costs.
//! * **khugepaged** — periodic background promotion of fully-populated
//!   base-page regions into huge pages.
//! * **Page cache** — file loads occupy reclaimable memory ("single-use
//!   memory", §4.3), optionally placed on a remote node via tmpfs or
//!   bypassed with direct I/O.
//! * **Reclaim and swap** — page-cache reclaim on allocation failure and
//!   swap-out/in with disk-like costs, which produces the paper's
//!   order-of-magnitude slowdowns when memory is oversubscribed (§4.3.1).
//!
//! The central type is [`System`]. Workload code calls [`System::read`] /
//! [`System::write`] with virtual addresses; everything else (TLBs, walks,
//! faults, THP decisions, clock accounting) happens behind that call.
//!
//! ## Example
//!
//! ```
//! use graphmem_os::{System, SystemSpec, ThpMode};
//!
//! let mut spec = SystemSpec::scaled_demo();
//! spec.thp.mode = ThpMode::Always;
//! let mut sys = System::new(spec);
//! let buf = sys.mmap(8 * 1024 * 1024, "property_array");
//! sys.write(buf);                 // first touch → huge page fault
//! assert_eq!(sys.os_stats().huge_faults, 1);
//! let report = sys.mapping_report(buf);
//! assert!(report.huge_pages >= 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bloat;
mod compact;
mod config;
mod costlog;
mod fault;
mod governor;
mod khugepaged;
mod pagecache;
mod reclaim;
mod stats;
mod steady;
mod swapdev;
mod system;
mod vma;

pub use config::{
    FilePlacement, KhugepagedConfig, OsCostModel, SystemSpec, ThpMode, ThpPolicy, UtilizationPolicy,
};
pub use governor::{GovernorConfig, GovernorEpochSample, GovernorStats};
pub use pagecache::PageCache;
pub use stats::OsStats;
pub use steady::SteadyEpoch;
pub use swapdev::SwapDevice;
pub use system::{MappingReport, System};
pub use vma::{AddressSpace, Vma, VmaId};

// Re-export the address-space vocabulary callers need to talk to a
// [`System`], so downstream crates don't have to depend on `graphmem-vm`.
pub use graphmem_telemetry::{MemStateSample, MemStateSeries};
pub use graphmem_vm::{PageSize, RegionCounters, VirtAddr};
