//! Utilization-based huge-page demotion — the Ingens/HawkEye-style
//! heuristic the paper's related work (§6) contrasts with its
//! application-guided approach:
//!
//! > "Memory bloat is common and wastes free memory if not all data within
//! > a huge page region is used. Prior works balance performance and bloat
//! > by tracking memory accesses and demoting huge pages when the number of
//! > accessed constituent base pages is below a certain threshold."
//!
//! The daemon scans huge mappings, reads the MMU's per-huge-page
//! utilization bitmaps (the simulated analogue of accessed-bit scanning),
//! splits pages below the threshold, and — optionally — unmaps and frees
//! the never-touched base pages (zero-page bloat recovery).
//!
//! The split itself, `System::demote_huge`, is the only one in the
//! kernel: swap reclaim and the page-size governor split through it too.

use graphmem_telemetry::{DemotionReason, EventKind};
use graphmem_vm::{Leaf, PageSize, VirtAddr};

use crate::system::System;

impl System {
    /// Run the utilization daemon if configured and due. A replay
    /// (`replay`) never runs it: its bitmaps are set per access, which a
    /// replay skips. Returns whether it ran or was not due.
    pub(crate) fn maybe_kbloatd(&mut self, replay: bool) -> bool {
        let Some(policy) = self.thp.utilization_demotion else {
            return true;
        };
        if self.clock < self.bloat_next_run {
            return true;
        }
        if replay {
            return false;
        }
        self.bloat_next_run = self.clock + policy.scan_interval_cycles;
        self.kbloatd_scan();
        self.recompute_event_horizon();
        true
    }

    /// Force one scan pass immediately (tests and experiments).
    pub fn run_kbloatd_now(&mut self) {
        // Splits shoot down TLB entries the cursor may rely on.
        self.clear_run_memo();
        self.kbloatd_scan();
    }

    fn kbloatd_scan(&mut self) {
        let Some(policy) = self.thp.utilization_demotion else {
            return;
        };
        // Collect huge mappings first (cannot mutate while walking).
        let mut huge: Vec<(VirtAddr, Leaf)> = Vec::new();
        for (_, vma) in self.aspace.iter() {
            if vma.hugetlb() {
                continue; // explicit reservations are exempt, as on Linux
            }
            self.pt
                .for_each_mapped(vma.start(), vma.end(), &mut |va, l| {
                    if l.size == PageSize::Huge {
                        huge.push((va, l));
                    }
                });
        }
        for (va, _leaf) in huge {
            self.charge(self.cost.compact_scan_block); // scan cost per region
            let hvpn = self.geom.page_number(va, PageSize::Huge);
            // A page with no sample yet (promoted, not touched since) has
            // told the daemon nothing: leave it until an access samples it.
            let Some(util) = self.mmu.utilization_of(hvpn) else {
                continue;
            };
            if util < policy.threshold {
                let touched = self.demote_huge(va, DemotionReason::Utilization);
                self.requeue_split(va, &touched, policy.reclaim_untouched);
                self.stats.util_demotions += 1;
            }
        }
    }

    /// Split the huge page at `va` back into base mappings: the one split
    /// every demotion (swap, utilization, governor) goes through. The new
    /// leaf table is backed by the mapping's pgtable deposit alone, so a
    /// split never allocates. Returns which base pages were touched since
    /// utilization tracking began (all `false` when it is off); what
    /// becomes of the base pages is the caller's choice.
    ///
    /// # Panics
    ///
    /// Panics unless `va` is a THP huge mapping holding its deposit.
    pub(crate) fn demote_huge(&mut self, va: VirtAddr, reason: DemotionReason) -> Vec<bool> {
        let mut deposit = self
            .deposits
            .remove(&va.vpn())
            .expect("a THP huge page holds its pgtable deposit")
            .into_iter();
        let old = self
            .pt
            .demote(va, &mut || deposit.next())
            .expect("the deposit backs the split's leaf table");
        debug_assert!(deposit.next().is_none(), "deposit larger than a leaf table");
        let ln = self.local_node as usize;
        self.zones[ln].split_allocated(old.frame);
        self.mmu.invalidate_page(va, PageSize::Huge);
        self.charge(self.cost.tlb_shootdown);
        self.stats.demotions += 1;
        self.telemetry.emit(EventKind::Demotion {
            vaddr: va.0,
            reason,
        });
        let hvpn = self.geom.page_number(va, PageSize::Huge);
        let touched = self.mmu.utilization_bitmap(hvpn);
        self.mmu.clear_utilization(hvpn);
        touched.unwrap_or_else(|| vec![false; self.geom.frames(PageSize::Huge) as usize])
    }

    /// Queue the base pages of the huge page just split at `va` as swap
    /// candidates; with `reclaim_untouched`, unmap and free instead the
    /// ones `touched` marks as never used.
    pub(crate) fn requeue_split(
        &mut self,
        va: VirtAddr,
        touched: &[bool],
        reclaim_untouched: bool,
    ) {
        let base_vpn = va.vpn();
        for (vpn, &was_touched) in (base_vpn..).zip(touched) {
            if reclaim_untouched && !was_touched {
                // Never-touched zero page: unmap and free the frame; a
                // future access simply refaults a fresh zero page.
                let sub_va = VirtAddr(vpn << 12);
                let leaf = self.pt.unmap(sub_va).expect("just demoted");
                self.mmu.invalidate_page(sub_va, PageSize::Base);
                self.zones[leaf.node as usize].free_frame(leaf.frame);
                self.stats.bloat_frames_reclaimed += 1;
            } else {
                self.resident.push_back((vpn, PageSize::Base));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use graphmem_physmem::Memhog;
    use graphmem_vm::{PageSize, VirtAddr};
    use proptest::prelude::*;

    use crate::config::{SystemSpec, ThpMode, UtilizationPolicy};
    use crate::governor::GovernorConfig;
    use crate::system::System;

    /// One step of the huge-page lifecycle, on one of the two THP regions
    /// (`vma` 0 or 1) or the hugetlbfs one (`vma` 2).
    #[derive(Debug, Clone)]
    enum Step {
        Touch { vma: usize, page: u64 },
        Populate(usize),
        Khugepaged,
        Kbloatd,
        Governor,
        Swap(u8),
        Release(usize),
    }

    fn step() -> impl Strategy<Value = Step> {
        (0..10u8, 0..3usize, 0..64u64).prop_map(|(kind, vma, page)| match kind {
            0..=3 => Step::Touch { vma, page },
            4 => Step::Populate(vma % 2),
            5 => Step::Khugepaged,
            6 => Step::Kbloatd,
            7 => Step::Governor,
            8 => Step::Swap(1 + (page % 8) as u8),
            _ => Step::Release(vma),
        })
    }

    /// Two THP regions of four huge pages each and a one-page hugetlbfs
    /// region, on a node with less free memory than the THP regions need,
    /// plus a populated THP region no step touches: the governor's cold
    /// candidate.
    fn pressured_system() -> (System, [VirtAddr; 3], Memhog) {
        let mut spec = SystemSpec::scaled_with_order(16, 4);
        spec.thp.mode = ThpMode::Always;
        spec.thp.khugepaged.enabled = false;
        spec.thp.utilization_demotion = Some(UtilizationPolicy {
            threshold: 0.5,
            scan_interval_cycles: u64::MAX,
            reclaim_untouched: true,
        });
        let mut sys = System::new(spec);
        sys.enable_governor(GovernorConfig {
            epoch_cycles: 1 << 50,
            promote_cost: 0.5,
            demote_cost: 0.5,
            max_actions: 4,
        });
        let huge = sys.geometry().bytes(PageSize::Huge);
        assert_eq!(sys.hugetlb_reserve(1), 1);
        let hog = Memhog::occupy_all_but(sys.zone_mut(1), 8 * huge).expect("hog fits");
        let cold = sys.mmap(2 * huge, "cold");
        sys.populate(cold, 2 * huge);
        let vmas = [
            sys.mmap(4 * huge, "a"),
            sys.mmap(4 * huge, "b"),
            sys.mmap_hugetlb(huge, "h"),
        ];
        (sys, vmas, hog)
    }

    /// A forced scan that splits the page the translation cursor sits on
    /// leaves no stale cursor behind: the next access re-probes.
    #[test]
    fn forced_kbloatd_scan_drops_the_translation_cursor() {
        let mut spec = SystemSpec::scaled_with_order(16, 4);
        spec.thp.mode = ThpMode::Always;
        spec.thp.utilization_demotion = Some(UtilizationPolicy {
            scan_interval_cycles: u64::MAX,
            ..UtilizationPolicy::default()
        });
        let mut sys = System::new(spec);
        let a = sys.mmap(sys.geometry().bytes(PageSize::Huge), "a");
        sys.write(a);
        sys.read(a);
        sys.run_kbloatd_now();
        assert_eq!(sys.os_stats().demotions, 1);
        let walks = sys.perf().stlb_misses;
        sys.read(a);
        assert_eq!(
            sys.perf().stlb_misses,
            walks + 1,
            "the split page is walked again"
        );
    }

    /// A page khugepaged has just promoted has no utilization sample yet:
    /// kbloatd must not read that as "nothing used" and split it again.
    #[test]
    fn kbloatd_keeps_a_freshly_promoted_page() {
        let mut spec = SystemSpec::scaled_with_order(16, 4);
        spec.thp.mode = ThpMode::Always;
        spec.thp.utilization_demotion = Some(UtilizationPolicy {
            threshold: 0.5,
            scan_interval_cycles: u64::MAX,
            reclaim_untouched: true,
        });
        let mut sys = System::new(spec);
        let huge = sys.geometry().bytes(PageSize::Huge);
        let a = sys.mmap(huge, "a");
        sys.thp.fault_huge = false;
        sys.populate(a, huge);
        sys.thp.fault_huge = true;
        sys.run_khugepaged_now();
        assert_eq!(sys.mapping_report(a).huge_pages, 1);
        sys.run_kbloatd_now();
        assert_eq!(sys.mapping_report(a).huge_pages, 1, "promoted page split");
        assert_eq!(sys.os_stats().util_demotions, 0);
        assert_eq!(sys.os_stats().bloat_frames_reclaimed, 0);
    }

    /// The deposit ledger: every live non-hugetlb huge leaf holds exactly
    /// one deposit of a leaf table's frames, every deposit belongs to a
    /// live huge leaf, and no frame sits in two deposits.
    fn assert_deposit_ledger(sys: &System) {
        let mut huge = HashSet::new();
        for (_, vma) in sys.aspace.iter().filter(|(_, v)| !v.hugetlb()) {
            sys.pt
                .for_each_mapped(vma.start(), vma.end(), &mut |va, leaf| {
                    if leaf.size == PageSize::Huge {
                        huge.insert(va.vpn());
                    }
                });
        }
        let mut frames = HashSet::new();
        for (vpn, deposit) in &sys.deposits {
            assert!(
                huge.contains(vpn),
                "deposit at vpn {vpn:#x} has no huge leaf"
            );
            assert_eq!(deposit.len() as u64, sys.pt.leaf_table_frames());
            assert!(
                deposit.iter().all(|&f| frames.insert(f)),
                "a frame in two deposits"
            );
        }
        assert_eq!(
            sys.deposits.len(),
            huge.len(),
            "a huge leaf without a deposit"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn deposit_ledger_holds_across_the_huge_page_lifecycle(
            steps in proptest::collection::vec(step(), 1..64)
        ) {
            let (mut sys, vmas, _hog) = pressured_system();
            let huge = sys.geometry().bytes(PageSize::Huge);
            for step in steps {
                match step {
                    Step::Touch { vma, page } => {
                        let len = if vma == 2 { huge } else { 4 * huge };
                        sys.write(vmas[vma].add((page * 4096) % len));
                    }
                    Step::Populate(vma) => sys.populate(vmas[vma], 4 * huge),
                    Step::Khugepaged => sys.run_khugepaged_now(),
                    Step::Kbloatd => sys.run_kbloatd_now(),
                    Step::Governor => sys.run_governor_now(),
                    Step::Swap(n) => {
                        // As on the fault path, whose reclaim this is.
                        sys.clear_run_memo();
                        for _ in 0..n {
                            sys.swap_out_one();
                        }
                    }
                    Step::Release(vma) => sys.release_region(vmas[vma]),
                }
                assert_deposit_ledger(&sys);
            }
        }
    }
}
