//! OS policy knobs, cycle costs, and whole-system specification.

use graphmem_physmem::{MemConfig, NodeId};
use graphmem_vm::MmuConfig;

/// Linux transparent-huge-page mode
/// (`/sys/kernel/mm/transparent_hugepage/enabled`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThpMode {
    /// Only 4 KiB base pages are ever allocated (the paper's baseline).
    #[default]
    Never,
    /// Every anonymous VMA is huge-page eligible (system-wide THP).
    Always,
    /// Only ranges the program marked with `madvise(MADV_HUGEPAGE)` are
    /// eligible (programmer-directed THP; used for per-data-structure and
    /// selective THP experiments).
    Madvise,
}

/// THP policy configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThpPolicy {
    /// Eligibility mode.
    pub mode: ThpMode,
    /// Attempt huge allocation at page-fault time (Linux: `defer` off).
    pub fault_huge: bool,
    /// Run direct compaction when a fault-time huge allocation finds no
    /// free huge block (Linux `defrag` behaviour).
    pub fault_defrag: bool,
    /// Maximum candidate pageblocks direct compaction examines per fault
    /// before giving up (bounds the fault-time stall, as the kernel does).
    pub defrag_scan_blocks: usize,
    /// Background promotion daemon settings.
    pub khugepaged: KhugepagedConfig,
    /// Optional utilization-based demotion (the Ingens/HawkEye-style
    /// heuristic the paper's §6 contrasts with: track accessed bits and
    /// split huge pages whose constituent pages go unused, reclaiming the
    /// bloat). `None` = vanilla Linux behaviour.
    pub utilization_demotion: Option<UtilizationPolicy>,
}

impl Default for ThpPolicy {
    fn default() -> Self {
        ThpPolicy {
            mode: ThpMode::Never,
            fault_huge: true,
            fault_defrag: true,
            defrag_scan_blocks: 8,
            khugepaged: KhugepagedConfig::default(),
            utilization_demotion: None,
        }
    }
}

/// Settings of the utilization-based demotion daemon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationPolicy {
    /// Demote huge pages whose touched-base-page fraction is below this.
    /// A page no access has sampled since it became huge (a fresh
    /// promotion) is left alone.
    pub threshold: f64,
    /// Simulated cycles between scan passes.
    pub scan_interval_cycles: u64,
    /// Also unmap-and-free the untouched base pages after the split
    /// (HawkEye's zero-page bloat recovery); touched pages stay mapped.
    pub reclaim_untouched: bool,
}

impl Default for UtilizationPolicy {
    fn default() -> Self {
        UtilizationPolicy {
            threshold: 0.25,
            scan_interval_cycles: 20_000_000,
            reclaim_untouched: true,
        }
    }
}

/// khugepaged (background huge-page promotion) settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KhugepagedConfig {
    /// Whether the daemon runs at all.
    pub enabled: bool,
    /// Simulated cycles between scan passes (`scan_sleep_millisecs`).
    /// Each pass examines 16 huge regions and promotes only fully
    /// populated ones.
    pub scan_interval_cycles: u64,
}

impl Default for KhugepagedConfig {
    fn default() -> Self {
        KhugepagedConfig {
            enabled: true,
            scan_interval_cycles: 20_000_000,
        }
    }
}

/// Where file data lands when a workload loads its graph (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FilePlacement {
    /// Normal buffered I/O: the page cache occupies free memory on the
    /// *local* node — the "single-use memory" interference case.
    #[default]
    LocalPageCache,
    /// Files staged in tmpfs bound to the remote NUMA node (the paper's
    /// mitigation): reads are remote-memory accesses, no local occupation.
    TmpfsRemote,
    /// Direct I/O: bypass the page cache entirely; every read pays the
    /// disk cost but occupies no memory.
    DirectIo,
}

/// Cycle costs of kernel operations. Values are calibrated to a ~3 GHz
/// Haswell-class core (see `DESIGN.md` §4); all are tunable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsCostModel {
    /// Kernel entry + VMA lookup + bookkeeping per page fault.
    pub fault_base: u64,
    /// Zeroing one 4 KiB frame at fault time.
    pub zero_frame: u64,
    /// Migrating one frame during compaction (copy + rmap fixup).
    pub migrate_frame: u64,
    /// Examining one candidate pageblock during compaction.
    pub compact_scan_block: u64,
    /// Copying one frame during khugepaged promotion.
    pub promote_copy_frame: u64,
    /// A TLB shootdown (IPI round) after remapping.
    pub tlb_shootdown: u64,
    /// Writing one frame to swap (SSD-class latency).
    pub swap_out_frame: u64,
    /// Reading one frame from swap.
    pub swap_in_frame: u64,
    /// Reading one frame from disk into the page cache (sequential I/O).
    pub disk_read_frame: u64,
    /// Copying one frame from the page cache into an application buffer.
    pub cache_copy_frame: u64,
    /// Reading one frame from tmpfs on the remote node.
    pub remote_read_frame: u64,
    /// Reclaiming one clean page-cache frame.
    pub reclaim_frame: u64,
    /// A syscall (mmap/madvise/mlock) round trip.
    pub syscall: u64,
}

impl Default for OsCostModel {
    fn default() -> Self {
        OsCostModel {
            fault_base: 1_200,
            zero_frame: 400,
            migrate_frame: 1_000,
            compact_scan_block: 300,
            promote_copy_frame: 450,
            tlb_shootdown: 4_000,
            swap_out_frame: 150_000,
            swap_in_frame: 150_000,
            disk_read_frame: 12_000,
            cache_copy_frame: 300,
            remote_read_frame: 700,
            reclaim_frame: 250,
            syscall: 500,
        }
    }
}

/// Complete specification of a simulated machine + process.
#[derive(Debug, Clone)]
pub struct SystemSpec {
    /// Physical-memory geometry (huge page size).
    pub memcfg: MemConfig,
    /// Bytes of RAM per NUMA node (index = node id).
    pub node_bytes: Vec<u64>,
    /// MMU/TLB/cache configuration.
    pub mmu: MmuConfig,
    /// THP policy.
    pub thp: ThpPolicy,
    /// Kernel operation costs.
    pub cost: OsCostModel,
    /// Node the process and its memory are bound to (`numactl --membind`).
    pub local_node: NodeId,
    /// File-loading placement policy.
    pub file_placement: FilePlacement,
}

impl SystemSpec {
    /// The paper's machine at full scale: two 64 GiB nodes, Haswell MMU,
    /// 2 MiB huge pages. Suitable for tests that map modest numbers of
    /// pages; figure benches use [`SystemSpec::scaled`].
    pub fn haswell() -> Self {
        let memcfg = MemConfig::default();
        SystemSpec {
            memcfg,
            node_bytes: vec![64 << 30, 64 << 30],
            mmu: MmuConfig::haswell(memcfg),
            thp: ThpPolicy::default(),
            cost: OsCostModel::default(),
            local_node: 1,
            file_placement: FilePlacement::default(),
        }
    }

    /// The scaled-down preset used by the experiment harness: huge pages of
    /// 256 KiB (order 6), TLB reach and L3 divided by 8, two nodes of
    /// `node_mb` MiB each. Graph footprints of tens of MiB then sit in the
    /// same footprint:TLB-reach regime as the paper's tens of GiB
    /// (`DESIGN.md` §5).
    pub fn scaled(node_mb: u64) -> Self {
        Self::scaled_with_order(node_mb, 6)
    }

    /// Like [`SystemSpec::scaled`] but with an explicit huge-page order
    /// (tests use smaller huge pages so tiny graphs still span several).
    pub fn scaled_with_order(node_mb: u64, huge_order: u8) -> Self {
        let memcfg = MemConfig::with_huge_order(huge_order);
        SystemSpec {
            memcfg,
            node_bytes: vec![node_mb << 20, node_mb << 20],
            mmu: MmuConfig::scaled_haswell(memcfg, 8),
            thp: ThpPolicy::default(),
            cost: OsCostModel::default(),
            local_node: 1,
            file_placement: FilePlacement::default(),
        }
    }

    /// A small scaled system for doctests and unit tests (two 64 MiB
    /// nodes).
    pub fn scaled_demo() -> Self {
        Self::scaled(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_paper_baseline() {
        let p = ThpPolicy::default();
        assert_eq!(p.mode, ThpMode::Never);
        assert!(p.fault_huge);
    }

    #[test]
    fn presets_are_consistent() {
        let h = SystemSpec::haswell();
        assert_eq!(h.node_bytes.len(), 2);
        assert_eq!(h.local_node, 1);
        assert_eq!(h.memcfg.huge_frames(), 512);

        let s = SystemSpec::scaled(128);
        assert_eq!(s.node_bytes[0], 128 << 20);
        assert_eq!(s.memcfg.huge_frames(), 64);
        assert_eq!(s.mmu.tlb.stlb.entries, 128);
    }

    #[test]
    fn cost_model_sanity() {
        let c = OsCostModel::default();
        assert!(c.swap_in_frame > c.disk_read_frame);
        assert!(c.disk_read_frame > c.remote_read_frame);
        assert!(c.migrate_frame > c.reclaim_frame);
    }
}
