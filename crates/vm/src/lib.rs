//! # graphmem-vm — simulated address-translation and cache hardware
//!
//! Models the CPU-side virtual memory hardware that the paper's
//! characterization depends on:
//!
//! * a multi-level radix **page table** whose table pages are allocated from
//!   the simulated physical memory ([`PageTable`]),
//! * a two-level **TLB hierarchy** — per-page-size L1 DTLBs backed by a
//!   unified second-level TLB (STLB), with set-associative LRU arrays
//!   matching the Intel Haswell machine of the paper's Table 1 ([`TlbConfig`]),
//! * **page-walk caches** that let hardware walks skip upper levels,
//! * a three-level **data cache hierarchy** through which both application
//!   data accesses and page-walk PTE reads are charged ([`CacheHierarchy`]),
//! * a cycle **cost model** and **performance counters** that mirror what the
//!   paper measures with `perf`: DTLB miss rate, STLB miss rate, page-walk
//!   cycles ([`PerfCounters`]).
//!
//! The central type is [`MemorySystem`]: a per-core MMU+cache front end.
//! Callers (the simulated OS in `graphmem-os`) pass it a page table and a
//! virtual address; it performs TLB lookups, hardware walks, data cache
//! accesses, and returns the cycle cost — or a [`Fault`] that the OS must
//! handle.
//!
//! Everything is deterministic; there is no wall-clock time.
//!
//! ## Example
//!
//! ```
//! use graphmem_physmem::{MemConfig, Owner, Zone};
//! use graphmem_vm::{MemorySystem, MmuConfig, PageSize, PageTable, VirtAddr};
//!
//! let memcfg = MemConfig::default();
//! let mut zone = Zone::new(0, 4096, memcfg);
//! let mut pt = PageTable::new(0, memcfg);
//! let mut mmu = MemorySystem::new(MmuConfig::haswell(memcfg));
//!
//! // Map one 4 KiB page and access it.
//! let frame = zone.alloc_frame(Owner::user()).unwrap();
//! pt.map(VirtAddr(0x1000), PageSize::Base, frame, 0, &mut || {
//!     zone.alloc_frame(Owner::Kernel)
//! })
//! .unwrap();
//! let cost = mmu.access(&pt, VirtAddr(0x1234), false).unwrap();
//! assert!(cost.cycles > 0);
//! assert_eq!(mmu.counters().dtlb_misses, 1); // cold TLB
//! let again = mmu.access(&pt, VirtAddr(0x1238), false).unwrap();
//! assert_eq!(mmu.counters().dtlb_misses, 1); // now a DTLB hit
//! # let _ = again;
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
pub mod attribution;
mod cache;
mod config;
mod counters;
mod lru;
mod mmu;
mod pagetable;
mod pwc;
mod tlb;
mod trace;

pub use addr::{PageGeometry, PageSize, VirtAddr};
pub use attribution::RegionCounters;
pub use cache::{CacheGeometry, CacheHierarchy, CacheLevel};
pub use config::{CostModel, MmuConfig, TlbConfig, TlbGeometry};
pub use counters::PerfCounters;
pub use mmu::{AccessCost, Fault, FaultKind, MemorySystem, PageRunCharge, TranslationMemo};
pub use pagetable::{Leaf, MapError, PageTable, WalkResult};
pub use tlb::SetAssocTlb;
pub use trace::AccessTrace;
