//! Demand-paging fault handling and fault-time THP allocation.

use graphmem_physmem::{Frame, FrameRange, Owner};
use graphmem_telemetry::{EventKind, FaultOutcome};
use graphmem_vm::{PageSize, VirtAddr};

use crate::system::{user_owner, System, TAG_VPN};

impl System {
    /// Handle a not-present fault at `vaddr`: decide page size per the THP
    /// policy, allocate, zero, map.
    ///
    /// # Panics
    ///
    /// Panics if `vaddr` is outside every VMA (a segfault — simulation bug).
    pub(crate) fn demand_fault(&mut self, vaddr: VirtAddr) {
        let Some((id, vma)) = self.aspace.find(vaddr) else {
            panic!("segfault: {vaddr} not in any VMA");
        };
        if vma.hugetlb() {
            self.hugetlb_fault(vaddr);
            self.emit_fault(vaddr, FaultOutcome::Hugetlb);
            return;
        }
        let locked = vma.locked();
        if self.thp.fault_huge && self.huge_eligible(id, vaddr) {
            if self.try_huge_fault(vaddr, locked) {
                self.emit_fault(vaddr, FaultOutcome::Huge);
                return;
            }
            self.stats.huge_fallbacks += 1;
            self.base_fault(vaddr, locked);
            self.emit_fault(vaddr, FaultOutcome::HugeFallback);
            return;
        }
        self.base_fault(vaddr, locked);
        self.emit_fault(vaddr, FaultOutcome::Base);
    }

    /// Record how a demand fault (or swap-in) was resolved.
    pub(crate) fn emit_fault(&self, vaddr: VirtAddr, outcome: FaultOutcome) {
        self.telemetry.emit(EventKind::PageFault {
            vaddr: vaddr.0,
            outcome,
        });
    }

    /// Back a hugetlbfs region from the reservation pool. The pool was
    /// carved at boot, so this never competes with fragmentation — but an
    /// exhausted pool is a hard failure (`SIGBUS` on real Linux).
    ///
    /// # Panics
    ///
    /// Panics ("SIGBUS") if the pool is exhausted.
    fn hugetlb_fault(&mut self, vaddr: VirtAddr) {
        let Some(range) = self.hugetlb_pool.pop() else {
            panic!("SIGBUS: hugetlb pool exhausted at {vaddr}");
        };
        let huge_bytes = self.geom.bytes(PageSize::Huge);
        let lo = vaddr.align_down(huge_bytes);
        self.charge(self.cost.zero_frame * self.geom.frames(PageSize::Huge));
        let ln = self.local_node as usize;
        self.zones[ln].set_tag(range.base, TAG_VPN | lo.vpn());
        self.map_with_tables(lo, PageSize::Huge, range.base);
        self.stats.huge_faults += 1;
        // hugetlbfs pages are never swapped or demoted: not made resident.
    }

    /// Attempt to back `vaddr`'s huge region with a freshly allocated huge
    /// page and its pgtable deposit. Returns `false` on failure (caller
    /// falls back to a base page, as Linux does).
    fn try_huge_fault(&mut self, vaddr: VirtAddr, locked: bool) -> bool {
        let Some((range, _)) = self.alloc_huge_frame(locked) else {
            return false;
        };
        let ln = self.local_node as usize;
        let huge_bytes = self.geom.bytes(PageSize::Huge);
        let lo = vaddr.align_down(huge_bytes);
        // Reserve the pgtable deposit so a later split never allocates
        // (Linux fails the THP fault if the deposit cannot be allocated).
        let mut deposit = Vec::new();
        for _ in 0..self.pt.leaf_table_frames() {
            match self.zones[ln].alloc_frame(Owner::Kernel) {
                Some(f) => deposit.push(f),
                None => {
                    for f in deposit {
                        self.zones[ln].free_frame(f);
                    }
                    let huge_order = self.zones[ln].config().huge_order;
                    self.zones[ln].free(range.base, huge_order);
                    return false;
                }
            }
        }
        self.deposits.insert(lo.vpn(), deposit);
        // Zeroing the whole huge page is the dominant creation cost
        // ("huge pages require additional CPU time to create", §1).
        self.charge(self.cost.zero_frame * self.geom.frames(PageSize::Huge));
        self.zones[ln].set_tag(range.base, TAG_VPN | lo.vpn());
        self.map_with_tables(lo, PageSize::Huge, range.base);
        self.stats.huge_faults += 1;
        self.resident.push_back((lo.vpn(), PageSize::Huge));
        true
    }

    /// Allocate a huge block for user data, running bounded direct
    /// compaction when the buddy has none and `fault_defrag` allows it.
    /// Shared by THP faults and promotion. Returns the block and whether
    /// compaction made it.
    pub(crate) fn alloc_huge_frame(&mut self, locked: bool) -> Option<(FrameRange, bool)> {
        let ln = self.local_node as usize;
        let owner = user_owner(locked);
        let huge_order = self.zones[ln].config().huge_order;
        if let Some(range) = self.zones[ln].alloc(huge_order, owner) {
            return Some((range, false));
        }
        if !self.thp.fault_defrag {
            return None;
        }
        self.direct_compact_for_huge(owner)
            .map(|range| (range, true))
    }

    /// Whether [`System::alloc_huge_frame`] would fail with nothing
    /// moved: the buddy has no free huge block, and direct compaction, if
    /// allowed, finds no candidate block to vacate. Such a failure
    /// changes counters only (a failed allocation, a compaction pass).
    pub(crate) fn huge_frame_unavailable(&self) -> bool {
        let zone = &self.zones[self.local_node as usize];
        !zone.has_free_huge_block()
            && (!self.thp.fault_defrag || zone.candidate_compaction_regions().is_empty())
    }

    /// Back `vaddr` with a single base page.
    pub(crate) fn base_fault(&mut self, vaddr: VirtAddr, locked: bool) {
        let frame = self.alloc_user_frame(locked);
        let lo = vaddr.align_down(graphmem_physmem::FRAME_SIZE);
        self.charge(self.cost.zero_frame);
        let ln = self.local_node as usize;
        self.zones[ln].set_tag(frame, TAG_VPN | lo.vpn());
        self.map_with_tables(lo, PageSize::Base, frame);
        self.stats.base_faults += 1;
        self.resident.push_back((lo.vpn(), PageSize::Base));
    }

    /// Install a mapping, allocating page-table frames from the local zone
    /// (reclaiming if needed).
    ///
    /// # Panics
    ///
    /// Panics on unrecoverable OOM or double-mapping (simulation bugs).
    pub(crate) fn map_with_tables(&mut self, vaddr: VirtAddr, size: PageSize, frame: Frame) {
        // Pre-flight: free up exactly the frames the table walk will need,
        // so the allocator closure below cannot fail halfway through.
        let needed = self.pt.tables_needed(vaddr, size);
        let mut rounds = 0;
        while self.zones[self.local_node as usize].free_frames() < needed {
            if !self.reclaim_one_frame() && !self.swap_out_one() {
                panic!("out of memory for page tables mapping {vaddr}");
            }
            rounds += 1;
            assert!(rounds < 100_000, "page-table reclaim not converging");
        }
        let ln = self.local_node as usize;
        let node = self.local_node;
        let System {
            ref mut pt,
            ref mut zones,
            ..
        } = *self;
        let zone = &mut zones[ln];
        let mut alloc = || zone.alloc_frame(Owner::Kernel);
        match pt.map(vaddr, size, frame, node, &mut alloc) {
            Ok(()) => {}
            Err(e) => panic!("map({vaddr}, {size:?}) failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{SystemSpec, ThpMode};
    use crate::system::System;
    use graphmem_physmem::Fragmenter;
    use graphmem_vm::PageSize;

    fn sys_with(mode: ThpMode) -> System {
        let mut spec = SystemSpec::scaled_demo();
        spec.thp.mode = mode;
        System::new(spec)
    }

    #[test]
    fn thp_never_only_base_pages() {
        let mut sys = sys_with(ThpMode::Never);
        let a = sys.mmap(1 << 20, "a");
        sys.populate(a, 1 << 20);
        let rep = sys.mapping_report(a);
        assert_eq!(rep.huge_pages, 0);
        assert_eq!(rep.base_pages, (1 << 20) / 4096);
        assert_eq!(sys.os_stats().huge_fallbacks, 0);
    }

    #[test]
    fn thp_always_uses_huge_pages() {
        let mut sys = sys_with(ThpMode::Always);
        let huge = sys.geometry().bytes(PageSize::Huge);
        let a = sys.mmap(8 * huge, "a");
        sys.populate(a, 8 * huge);
        let rep = sys.mapping_report(a);
        assert_eq!(rep.huge_pages, 8);
        assert_eq!(rep.base_pages, 0);
        assert_eq!(sys.os_stats().huge_faults, 8);
    }

    #[test]
    fn thp_always_partial_tail_gets_base_pages() {
        let mut sys = sys_with(ThpMode::Always);
        let huge = sys.geometry().bytes(PageSize::Huge);
        let a = sys.mmap(huge + 8192, "a");
        sys.populate(a, huge + 8192);
        let rep = sys.mapping_report(a);
        assert_eq!(rep.huge_pages, 1);
        assert_eq!(rep.base_pages, 2);
    }

    #[test]
    fn madvise_mode_respects_advice_boundaries() {
        let mut sys = sys_with(ThpMode::Madvise);
        let huge = sys.geometry().bytes(PageSize::Huge);
        let a = sys.mmap(4 * huge, "a");
        // Advise only the first half.
        sys.madvise_hugepage(a, 2 * huge);
        sys.populate(a, 4 * huge);
        let rep = sys.mapping_report(a);
        assert_eq!(rep.huge_pages, 2);
        assert_eq!(rep.base_pages, 2 * huge / 4096);
    }

    #[test]
    fn fragmentation_forces_fallback_to_base_pages() {
        let mut sys = sys_with(ThpMode::Always);
        // Fully fragment free memory with unmovable pages: no huge pages
        // can ever be created and compaction cannot help.
        let frag = Fragmenter::apply(sys.zone_mut(1), 1.0);
        assert_eq!(sys.zone(1).free_huge_blocks(), 0);
        let huge = sys.geometry().bytes(PageSize::Huge);
        let a = sys.mmap(4 * huge, "a");
        sys.populate(a, 4 * huge);
        let rep = sys.mapping_report(a);
        assert_eq!(rep.huge_pages, 0);
        assert!(sys.os_stats().huge_fallbacks >= 4);
        let _ = frag;
    }

    #[test]
    fn huge_fault_costs_more_than_base_fault() {
        let mut always = sys_with(ThpMode::Always);
        let huge = always.geometry().bytes(PageSize::Huge);
        let a = always.mmap(huge, "a");
        let cp = always.checkpoint();
        always.write(a);
        let (huge_cost, _, _) = always.since(&cp);

        let mut never = sys_with(ThpMode::Never);
        let b = never.mmap(huge, "b");
        let cp = never.checkpoint();
        never.write(b);
        let (base_cost, _, _) = never.since(&cp);
        assert!(
            huge_cost > 10 * base_cost,
            "huge fault {huge_cost} vs base fault {base_cost}"
        );
    }
}
