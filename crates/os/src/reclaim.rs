//! Reclaim and swap: freeing memory under pressure.
//!
//! Order of preference mirrors Linux: drop clean page-cache pages first
//! (cheap), then swap out anonymous pages (disk-cost). Huge pages are
//! demoted (split) before their base pages can be swapped, as the kernel
//! does.

use graphmem_telemetry::{DemotionReason, EventKind, FaultOutcome, ReclaimKind};
use graphmem_vm::{PageSize, VirtAddr, WalkResult};

use crate::system::{System, TAG_VPN};

impl System {
    /// Reclaim one clean page-cache frame on the local node, if any.
    pub(crate) fn reclaim_one_frame(&mut self) -> bool {
        let ln = self.local_node as usize;
        if let Some(frame) = self.cache.take_one(self.local_node) {
            self.zones[ln].free_frame(frame);
            self.charge(self.cost.reclaim_frame);
            self.stats.cache_reclaims += 1;
            self.telemetry.emit(EventKind::Reclaim {
                kind: ReclaimKind::CacheDrop,
                frames: 1,
            });
            true
        } else {
            false
        }
    }

    /// Swap out one resident anonymous page (FIFO victim order), demoting
    /// huge pages first. Returns whether a frame was freed.
    pub(crate) fn swap_out_one(&mut self) -> bool {
        // Bound the scan: each entry is inspected at most once per call.
        let mut budget = self.resident.len();
        while budget > 0 {
            budget -= 1;
            let Some((vpn, size)) = self.resident.pop_front() else {
                return false;
            };
            let va = VirtAddr(vpn << 12);
            let leaf = match self.pt.walk(va) {
                WalkResult::Mapped(l) if l.size == size => l,
                // Stale queue entry (promoted, demoted, or released).
                _ => continue,
            };
            if self.aspace.find(va).is_some_and(|(_, v)| v.locked()) {
                // mlocked: not swappable; keep it resident.
                self.resident.push_back((vpn, size));
                continue;
            }
            match size {
                PageSize::Huge => {
                    self.demote_huge(va, DemotionReason::Swap);
                    // Its base pages go to the queue front, and the next
                    // iteration swaps the first: the budget must allow it.
                    let frames = self.geom.frames(PageSize::Huge);
                    for sub in (vpn..vpn + frames).rev() {
                        self.resident.push_front((sub, PageSize::Base));
                    }
                    budget += 1;
                }
                PageSize::Base => {
                    let slot = self.swap.alloc_slot();
                    self.pt
                        .set_swapped(va, slot)
                        .expect("walked page vanished before swap-out");
                    self.zones[leaf.node as usize].free_frame(leaf.frame);
                    self.mmu.invalidate_page(va, PageSize::Base);
                    self.charge(self.cost.swap_out_frame);
                    self.stats.swap_outs += 1;
                    self.telemetry.emit(EventKind::Reclaim {
                        kind: ReclaimKind::SwapOut,
                        frames: 1,
                    });
                    return true;
                }
            }
        }
        false
    }

    /// Handle a fault on a swapped-out page: allocate a frame (possibly
    /// evicting something else), read the page back, restore the mapping.
    pub(crate) fn swap_in(&mut self, vaddr: VirtAddr, slot: u64) {
        let va = vaddr.align_down(graphmem_physmem::FRAME_SIZE);
        let frame = self.alloc_user_frame(false);
        let ln = self.local_node as usize;
        self.zones[ln].set_tag(frame, TAG_VPN | va.vpn());
        self.pt
            .restore_swapped(va, frame, self.local_node)
            .expect("swap-in target lost its swap entry");
        self.swap.free_slot(slot);
        self.charge(self.cost.swap_in_frame);
        self.stats.swap_ins += 1;
        self.telemetry.emit(EventKind::Reclaim {
            kind: ReclaimKind::SwapIn,
            frames: 1,
        });
        self.emit_fault(va, FaultOutcome::SwapIn);
        self.resident.push_back((va.vpn(), PageSize::Base));
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{SystemSpec, ThpMode, UtilizationPolicy};
    use crate::system::System;
    use graphmem_physmem::Memhog;
    use graphmem_vm::PageSize;

    /// Leave less free memory than the working set: accesses must thrash
    /// through swap and the clock must explode (paper §4.3.1's 24x).
    #[test]
    fn oversubscription_thrashes_through_swap() {
        let mut sys = System::new(SystemSpec::scaled_demo());
        let wss = 8 << 20; // 8 MiB working set
        let hog = Memhog::occupy_all_but(sys.zone_mut(1), wss - (1 << 20)).unwrap();
        let a = sys.mmap(wss, "arr");
        sys.populate(a, wss);
        assert!(sys.os_stats().swap_outs > 0, "populate must already evict");

        // Random-ish sweep: every page, twice.
        let cp = sys.checkpoint();
        let pages = wss / 4096;
        for round in 0..2u64 {
            for i in 0..pages {
                let idx = (i * 769 + round) % pages; // co-prime stride
                sys.read(a.add(idx * 4096));
            }
        }
        let (cycles, _, os) = sys.since(&cp);
        assert!(os.swap_ins > 0);
        // Compare with an unconstrained run of the same access pattern.
        let mut free_sys = System::new(SystemSpec::scaled_demo());
        let b = free_sys.mmap(wss, "arr");
        free_sys.populate(b, wss);
        let cp2 = free_sys.checkpoint();
        for round in 0..2u64 {
            for i in 0..pages {
                let idx = (i * 769 + round) % pages;
                free_sys.read(b.add(idx * 4096));
            }
        }
        let (free_cycles, _, _) = free_sys.since(&cp2);
        assert!(
            cycles > 5 * free_cycles,
            "thrashing {cycles} vs free {free_cycles}"
        );
        let _ = hog;
    }

    #[test]
    fn swapped_pages_come_back_with_correct_contents_path() {
        // (Contents live host-side; what we verify is mapping integrity:
        // a swapped page faults exactly once and then is resident again.)
        let mut sys = System::new(SystemSpec::scaled_demo());
        let wss = 4 << 20;
        let _hog = Memhog::occupy_all_but(sys.zone_mut(1), wss / 2).unwrap();
        let a = sys.mmap(wss, "arr");
        sys.populate(a, wss);
        let faults_after_init = sys.os_stats().faults;
        sys.read(a); // first page was surely evicted by the tail of populate
        let os = sys.os_stats();
        assert!(os.swap_ins >= 1);
        assert_eq!(os.faults, faults_after_init + 1);
        // Second read: no new fault.
        sys.read(a.add(64));
        assert_eq!(sys.os_stats().faults, faults_after_init + 1);
    }

    #[test]
    fn huge_pages_are_demoted_before_swap() {
        let mut spec = SystemSpec::scaled_demo();
        spec.thp.mode = ThpMode::Always;
        let mut sys = System::new(spec);
        let huge = sys.geometry().bytes(PageSize::Huge);
        // Constrain so that populating 3 huge regions forces eviction of
        // the first.
        let _hog = Memhog::occupy_all_but(sys.zone_mut(1), 3 * huge - (huge / 2)).unwrap();
        let a = sys.mmap(3 * huge, "arr");
        sys.populate(a, 3 * huge);
        let os = sys.os_stats();
        assert!(os.demotions >= 1, "a huge page must have been split");
        assert!(os.swap_outs >= 1);
    }

    #[test]
    fn mlocked_regions_are_never_swapped() {
        let mut sys = System::new(SystemSpec::scaled_demo());
        let locked_len = 2 << 20;
        let a = sys.mmap(locked_len, "locked");
        sys.mlock_region(a);
        sys.populate(a, locked_len);
        // Now oversubscribe with a second region.
        let free = sys.zone(1).free_bytes();
        let b = sys.mmap(free + (1 << 20), "big");
        sys.populate(b, free + (1 << 20));
        // The locked region must still be fully resident.
        let rep = sys.mapping_report(a);
        assert_eq!(rep.mapped_bytes, locked_len);
        assert!(sys.os_stats().swap_outs > 0, "pressure must have swapped");
    }

    /// Splitting the last huge page the scan may inspect still frees a
    /// frame: the scan goes on to swap the split's first base page.
    #[test]
    fn a_swap_split_goes_on_to_swap_a_base_page() {
        let mut spec = SystemSpec::scaled_demo();
        spec.thp.mode = ThpMode::Always;
        let mut sys = System::new(spec);
        let a = sys.mmap(sys.geometry().bytes(PageSize::Huge), "a");
        sys.write(a);
        assert!(sys.swap_out_one(), "a frame was freed");
        let os = sys.os_stats();
        assert_eq!((os.demotions, os.swap_outs), (1, 1));
    }

    /// A swap split forgets the huge page's touched-bitmap, as every split
    /// does, so kbloatd never reads touches from before a split.
    #[test]
    fn swap_split_clears_utilization() {
        let mut spec = SystemSpec::scaled_demo();
        spec.thp.mode = ThpMode::Always;
        spec.thp.utilization_demotion = Some(UtilizationPolicy {
            scan_interval_cycles: u64::MAX,
            ..UtilizationPolicy::default()
        });
        let mut sys = System::new(spec);
        let huge = sys.geometry().bytes(PageSize::Huge);
        let a = sys.mmap(huge, "a");
        sys.write(a);
        let hvpn = sys.geometry().page_number(a, PageSize::Huge);
        assert!(sys.mmu.utilization_of(hvpn).is_some());
        sys.swap_out_one();
        assert_eq!(sys.os_stats().demotions, 1);
        assert_eq!(sys.mmu.utilization_of(hvpn), None);
    }
}
