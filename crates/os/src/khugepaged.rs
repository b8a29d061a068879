//! khugepaged: background promotion of base-page regions to huge pages.

use graphmem_telemetry::EventKind;
use graphmem_vm::{PageSize, VirtAddr};

use crate::config::ThpMode;
use crate::system::{System, TAG_VPN};
use crate::vma::VmaId;

/// Huge regions examined per scan pass (Linux's `pages_to_scan`).
const REGIONS_PER_SCAN: usize = 16;

/// Why a promotion attempt succeeded or failed — the distinction the
/// page-size governor needs to tell "this region isn't ready" from "the
/// machine is out of contiguity".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PromoteOutcome {
    /// The region was promoted to a huge mapping.
    Promoted {
        /// Whether direct compaction had to manufacture the huge block.
        #[allow(dead_code)]
        compacted: bool,
    },
    /// The region is not a promotion candidate (mode gating, already
    /// huge, or not fully populated).
    Ineligible,
    /// The region was eligible but no huge frame could be allocated or
    /// compacted — denied by fragmentation.
    NoContiguity,
}

/// The regions one khugepaged pass examines, and where its cursor ends.
/// The walk reads only the address space, so it is planned before any
/// region is examined.
pub(crate) struct ScanPlan {
    windows: Vec<(VmaId, VirtAddr)>,
    cursor: (usize, u64),
}

impl System {
    /// Run the daemon if its timer expired (called from the access path —
    /// in this single-core model the daemon steals application cycles,
    /// exactly the CPU-time cost the paper attributes to huge page
    /// management). In a replay (`replay`) the pass runs only if it is
    /// inert; returns whether it ran or was not due.
    pub(crate) fn maybe_khugepaged(&mut self, replay: bool) -> bool {
        if !self.thp.khugepaged.enabled
            || self.thp.mode == ThpMode::Never
            || self.clock < self.kh.next_run
        {
            return true;
        }
        let plan = self.khugepaged_plan();
        // Inert: no window is a candidate, or every candidate's huge frame
        // is denied with nothing moved (the pass then changes counters
        // only).
        let inert = plan.as_ref().is_none_or(|p| {
            !p.windows.iter().any(|&(id, lo)| self.promotable(id, lo))
                || self.huge_frame_unavailable()
        });
        if !inert {
            if replay {
                return false;
            }
            self.passes_acted += 1;
        }
        self.kh.next_run = self.clock + self.thp.khugepaged.scan_interval_cycles;
        self.khugepaged_scan(plan);
        self.recompute_event_horizon();
        true
    }

    /// Force one scan pass immediately (tests and experiments).
    pub fn run_khugepaged_now(&mut self) {
        // Promotions flush the TLBs the cursor relies on.
        self.clear_run_memo();
        self.khugepaged_scan(self.khugepaged_plan());
    }

    /// The next pass's scan windows, from the cursor on: up to
    /// `REGIONS_PER_SCAN` huge-aligned regions that fit their VMA,
    /// wrapping at the end of the address space. `None` when there is no
    /// VMA to scan.
    fn khugepaged_plan(&self) -> Option<ScanPlan> {
        let nvmas = self.aspace.len();
        if nvmas == 0 {
            return None;
        }
        let huge_bytes = self.geom.bytes(PageSize::Huge);
        let (mut vi, mut off) = self.kh.cursor;
        let mut windows = Vec::with_capacity(REGIONS_PER_SCAN);
        let mut hops = 0; // VMA switches; 2*nvmas bounds a full wrap
        while windows.len() < REGIONS_PER_SCAN && hops <= 2 * nvmas {
            if vi >= nvmas {
                vi = 0;
                off = 0;
                hops += 1;
                continue;
            }
            let vma = self.aspace.get(VmaId(vi));
            let lo = vma.start().add(off);
            if lo.add(huge_bytes) > vma.end() {
                vi += 1;
                off = 0;
                hops += 1;
                continue;
            }
            off += huge_bytes;
            windows.push((VmaId(vi), lo));
        }
        Some(ScanPlan {
            windows,
            cursor: (vi, off),
        })
    }

    fn khugepaged_scan(&mut self, plan: Option<ScanPlan>) {
        self.stats.khugepaged_scans += 1;
        let Some(plan) = plan else { return };
        let mut promoted = 0u32;
        for &(id, lo) in &plan.windows {
            self.charge(self.cost.compact_scan_block);
            if matches!(
                self.try_promote_region(id, lo),
                PromoteOutcome::Promoted { .. }
            ) {
                promoted += 1;
            }
        }
        self.kh.cursor = plan.cursor;
        self.telemetry.emit(EventKind::KhugepagedScan {
            regions_scanned: plan.windows.len() as u32,
            promoted,
        });
    }

    /// Whether `[lo, lo + huge)` of VMA `id` is a promotion candidate: the
    /// THP mode allows it and every base page of it is present. Full
    /// population is required (Linux's `max_ptes_none` = 0): the count
    /// covers present leaves only, so a region with an empty or
    /// swapped-out PTE, or already huge, is not a candidate. Reads state
    /// only; a region that fails it is exactly one
    /// [`System::try_promote_region`] leaves untouched.
    pub(crate) fn promotable(&self, id: VmaId, lo: VirtAddr) -> bool {
        let hi = lo.add(self.geom.bytes(PageSize::Huge));
        self.thp_allows(id, lo, hi)
            && self.pt.count_mapped(lo, hi) == (self.geom.frames(PageSize::Huge), 0)
    }

    /// Promote `[lo, lo + huge)` if the THP mode allows it, every base page
    /// of it is present, and a huge frame can be found.
    pub(crate) fn try_promote_region(&mut self, id: VmaId, lo: VirtAddr) -> PromoteOutcome {
        if !self.promotable(id, lo) {
            return PromoteOutcome::Ineligible;
        }
        let huge_frames = self.geom.frames(PageSize::Huge);
        // The destination huge frame (with bounded compaction, like
        // khugepaged's own use of the compactor).
        let Some((range, compacted)) = self.alloc_huge_frame(self.aspace.get(id).locked()) else {
            return PromoteOutcome::NoContiguity;
        };
        // Copy + remap + shoot down.
        self.charge(self.cost.promote_copy_frame * huge_frames + self.cost.tlb_shootdown);
        let (old_leaves, table_frames) = self
            .pt
            .promote(lo, range.base, self.local_node)
            .expect("region checked populated");
        for leaf in old_leaves {
            self.zones[leaf.node as usize].free_frame(leaf.frame);
        }
        // The withdrawn leaf table becomes the pgtable deposit of the new
        // huge mapping (Linux re-deposits it for a future split).
        self.deposits.insert(lo.vpn(), table_frames);
        self.zones[self.local_node as usize].set_tag(range.base, TAG_VPN | lo.vpn());
        self.mmu.flush_tlb();
        self.stats.promotions += 1;
        self.telemetry.emit(EventKind::Promotion {
            vaddr: lo.0,
            compacted,
        });
        self.resident.push_back((lo.vpn(), PageSize::Huge));
        PromoteOutcome::Promoted { compacted }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{SystemSpec, ThpMode};
    use crate::system::System;
    use graphmem_vm::PageSize;

    fn sys_always() -> System {
        let mut spec = SystemSpec::scaled_demo();
        spec.thp.mode = ThpMode::Always;
        System::new(spec)
    }

    #[test]
    fn promotes_base_paged_regions_when_memory_frees_up() {
        let mut sys = sys_always();
        let huge = sys.geometry().bytes(PageSize::Huge);
        // Populate with THP fault path off → base pages only.
        sys.thp.fault_huge = false;
        let a = sys.mmap(4 * huge, "a");
        sys.populate(a, 4 * huge);
        assert_eq!(sys.mapping_report(a).huge_pages, 0);
        sys.thp.fault_huge = true;

        sys.run_khugepaged_now();
        let rep = sys.mapping_report(a);
        assert_eq!(rep.huge_pages, 4, "all four regions promoted");
        assert_eq!(rep.base_pages, 0);
        assert_eq!(sys.os_stats().promotions, 4);
        // Pages still accessible without faults.
        let faults = sys.os_stats().faults;
        sys.read(a.add(huge + 123));
        assert_eq!(sys.os_stats().faults, faults);
    }

    #[test]
    fn khugepaged_respects_madvise_mode() {
        let mut spec = SystemSpec::scaled_demo();
        spec.thp.mode = ThpMode::Madvise;
        let mut sys = System::new(spec);
        let huge = sys.geometry().bytes(PageSize::Huge);
        let a = sys.mmap(4 * huge, "a");
        // Advise only region 2.
        sys.madvise_hugepage(a.add(2 * huge), huge);
        sys.thp.fault_huge = false;
        sys.populate(a, 4 * huge);
        sys.thp.fault_huge = true;
        sys.run_khugepaged_now();
        let rep = sys.mapping_report(a);
        assert_eq!(rep.huge_pages, 1, "only the advised region promotes");
    }

    #[test]
    fn daemon_fires_on_clock() {
        let mut spec = SystemSpec::scaled_demo();
        spec.thp.mode = ThpMode::Always;
        spec.thp.khugepaged.scan_interval_cycles = 10_000;
        let mut sys = System::new(spec);
        let huge = sys.geometry().bytes(PageSize::Huge);
        sys.thp.fault_huge = false;
        let a = sys.mmap(huge, "a");
        sys.populate(a, huge);
        assert!(sys.os_stats().khugepaged_scans >= 1);
        // The region only becomes fully populated at the end of populate;
        // steady-state activity lets the next timer firing promote it.
        for _ in 0..20_000 {
            sys.read(a);
        }
        assert_eq!(sys.mapping_report(a).huge_pages, 1);
    }

    #[test]
    fn no_promotion_when_no_huge_blocks_exist() {
        let mut sys = sys_always();
        let huge = sys.geometry().bytes(PageSize::Huge);
        graphmem_physmem::Fragmenter::apply(sys.zone_mut(1), 1.0);
        sys.thp.fault_huge = false;
        let a = sys.mmap(2 * huge, "a");
        sys.populate(a, 2 * huge);
        sys.thp.fault_huge = true;
        sys.run_khugepaged_now();
        assert_eq!(sys.mapping_report(a).huge_pages, 0);
        assert_eq!(sys.os_stats().promotions, 0);
    }
}
