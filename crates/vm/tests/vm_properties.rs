//! Property-based tests for the TLB arrays and page tables.

use graphmem_physmem::{MemConfig, Owner, Zone};
use graphmem_vm::{Leaf, MapError, PageSize, PageTable, SetAssocTlb, VirtAddr, WalkResult};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Huge-region numbers the model test works in: three near the bottom of
/// the address space and one under another root slot.
const REGIONS: [u64; 4] = [0, 1, 6, 1 << 25];

/// A page-table call that may allocate table frames.
type AllocatingCall<'a> =
    dyn FnMut(&mut PageTable, &mut dyn FnMut() -> Option<u64>) -> Result<(), MapError> + 'a;

/// Run `call` with an allocator that hands out `limit` frames and then
/// fails; if it ran out, run it again with one that never fails. Counts
/// every frame handed out in `handed_out`, and checks that a failed call
/// lost none: `handed_out == table_frames() + returned`, where
/// `returned` counts the frames `promote` gave back.
fn alloc_twice(
    pt: &mut PageTable,
    mut limit: u64,
    handed_out: &mut u64,
    returned: u64,
    call: &mut AllocatingCall,
) -> Result<(), MapError> {
    let first = call(pt, &mut || {
        (limit > 0).then(|| {
            limit -= 1;
            *handed_out += 1;
            1 << 40 | *handed_out
        })
    });
    assert_eq!(
        *handed_out,
        pt.table_frames() + returned,
        "a failed call lost frames"
    );
    if first != Err(MapError::OutOfTableMemory) {
        return first;
    }
    call(pt, &mut || {
        *handed_out += 1;
        Some(1 << 40 | *handed_out)
    })
}

/// What the reference model holds for one base page.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Page {
    Mapped(u64),
    Swapped(u64),
}

/// A `HashMap` model of a page table: base pages by VPN, huge pages by
/// region, and the regions that have a leaf table (so a huge map there
/// fails even when every base page is gone).
#[derive(Default)]
struct Model {
    pages: HashMap<u64, Page>,
    huge: HashMap<u64, u64>,
    tables: HashSet<u64>,
}

impl Model {
    fn walk(&self, vpn: u64, hf: u64) -> WalkResult {
        let leaf = |frame, size| {
            WalkResult::Mapped(Leaf {
                frame,
                node: 0,
                size,
            })
        };
        match (self.huge.get(&(vpn / hf)), self.pages.get(&vpn)) {
            (Some(&f), _) => leaf(f, PageSize::Huge),
            (None, Some(&Page::Mapped(f))) => leaf(f, PageSize::Base),
            (None, Some(&Page::Swapped(s))) => WalkResult::Swapped(s),
            (None, None) => WalkResult::NotMapped,
        }
    }

    fn base(&self, vpn: u64) -> Result<Leaf, MapError> {
        match self.pages.get(&vpn) {
            Some(&Page::Mapped(frame)) => Ok(Leaf {
                frame,
                node: 0,
                size: PageSize::Base,
            }),
            _ => Err(MapError::NotMapped),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A fully-associative TLB (ways == entries) behaves exactly like an
    /// LRU-ordered map: after any access sequence, the resident set is the
    /// `capacity` most recently used pages.
    #[test]
    fn fully_assoc_tlb_is_exact_lru(accesses in proptest::collection::vec(0u64..32, 1..200)) {
        let capacity = 8usize;
        let mut tlb = SetAssocTlb::new(capacity as u32, capacity as u32);
        let mut shadow: Vec<u64> = Vec::new(); // most recent last

        // Emulate the hardware fill-on-miss protocol against the shadow.
        for &vpn in &accesses {
            let hw_hit = tlb.probe(vpn, PageSize::Base);
            if !hw_hit {
                tlb.fill_for_test(vpn, PageSize::Base);
            }
            let sw_hit = shadow.contains(&vpn);
            prop_assert_eq!(hw_hit, sw_hit, "vpn {} divergence", vpn);
            shadow.retain(|&v| v != vpn);
            shadow.push(vpn);
            if shadow.len() > capacity {
                shadow.remove(0);
            }
        }
    }

    /// Random non-overlapping mappings walk back to exactly what was mapped,
    /// and unmapped addresses stay unmapped.
    #[test]
    fn pagetable_walks_match_mappings(pages in proptest::collection::btree_set(0u64..10_000, 1..150)) {
        let cfg = MemConfig::default();
        let mut zone = Zone::new(0, 8192, cfg);
        let mut pt = PageTable::new(0, cfg);
        let mut expected: HashMap<u64, u64> = HashMap::new();
        let mut handed_out = 0;
        for &vpn in &pages {
            let frame = zone.alloc_frame(Owner::user()).unwrap();
            let r = pt.map(VirtAddr(vpn * 4096), PageSize::Base, frame, 0, &mut || {
                handed_out += 1;
                zone.alloc_frame(Owner::Kernel)
            });
            prop_assert_eq!(r, Ok(()));
            expected.insert(vpn, frame);
        }
        prop_assert_eq!(pt.table_frames(), handed_out);
        for vpn in 0..10_000u64 {
            match (pt.walk(VirtAddr(vpn * 4096)), expected.get(&vpn)) {
                (WalkResult::Mapped(l), Some(&f)) => prop_assert_eq!(l.frame, f),
                (WalkResult::NotMapped, None) => {}
                (got, want) => return Err(TestCaseError::fail(
                    format!("vpn {vpn}: walk {got:?}, expected {want:?}"))),
            }
        }
        // Re-mapping any mapped page fails.
        if let Some((&vpn, _)) = expected.iter().next() {
            let r = pt.map(VirtAddr(vpn * 4096), PageSize::Base, 1, 0, &mut || None);
            prop_assert_eq!(r, Err(MapError::AlreadyMapped));
        }
    }

    /// Demote followed by promote restores a huge mapping covering the same
    /// frames, for every huge order.
    #[test]
    fn demote_promote_roundtrip(order in 2u8..=9, region in 0u64..16) {
        let cfg = MemConfig::with_huge_order(order);
        let mut zone = Zone::new(0, 64 * cfg.huge_frames(), cfg);
        let mut pt = PageTable::new(0, cfg);
        let hr = zone.alloc(cfg.huge_order, Owner::user()).unwrap();
        let hv = VirtAddr(region * cfg.huge_bytes());
        pt.map(hv, PageSize::Huge, hr.base, 0, &mut || zone.alloc_frame(Owner::Kernel)).unwrap();

        pt.demote(hv, &mut || zone.alloc_frame(Owner::Kernel)).unwrap();
        let (base_count, huge_count) = pt.count_mapped(hv, hv.add(cfg.huge_bytes()));
        prop_assert_eq!((base_count, huge_count), (cfg.huge_frames(), 0));

        let hr2 = zone.alloc(cfg.huge_order, Owner::user()).unwrap();
        let (old, table_frames) = pt.promote(hv, hr2.base, 0).unwrap();
        prop_assert_eq!(old.len() as u64, cfg.huge_frames());
        prop_assert!(old.iter().enumerate().all(|(i, l)| l.frame == hr.base + i as u64));
        prop_assert!(!table_frames.is_empty());
        match pt.walk(hv.add(123)) {
            WalkResult::Mapped(l) => {
                prop_assert_eq!(l.frame, hr2.base);
                prop_assert_eq!(l.size, PageSize::Huge);
            }
            other => return Err(TestCaseError::fail(format!("{other:?}"))),
        }
    }

    /// Random sequences of the seven mutators across huge orders 2..=9
    /// agree with a `HashMap` model: every walk, every region's
    /// `count_mapped`, and `for_each_mapped` in ascending order. Some
    /// calls get an allocator that runs dry after a few frames; such a
    /// call is retried with a working one. Table frames are conserved:
    /// frames handed out == `table_frames()` + frames `promote` returned.
    #[test]
    fn pagetable_matches_reference_model(
        order in 2u8..=9,
        ops in proptest::collection::vec((0u8..9, 0usize..4, 0u64..512, 0u64..8), 1..120),
    ) {
        let cfg = MemConfig::with_huge_order(order);
        let hf = cfg.huge_frames();
        let mut pt = PageTable::new(0, cfg);
        let mut model = Model::default();
        let (mut handed_out, mut returned) = (0, 0);
        for (step, (kind, r, page, knob)) in ops.into_iter().enumerate() {
            let region = REGIONS[r];
            let vpn = region * hf + page % hf;
            let va = VirtAddr(vpn * 4096);
            let frame = (step as u64 + 1) << 32;
            // Calls that may allocate first get an allocator that fails
            // after `knob` frames, when `knob` < 3.
            let limit = if knob < 3 { knob } else { u64::MAX };
            let mut twice = |pt: &mut PageTable, call: &mut AllocatingCall| {
                alloc_twice(pt, limit, &mut handed_out, returned, call)
            };
            match kind {
                0 => {
                    let taken = model.huge.contains_key(&region) || model.pages.contains_key(&vpn);
                    let got = twice(&mut pt, &mut |pt, a| pt.map(va, PageSize::Base, frame, 0, a));
                    prop_assert_eq!(got, if taken { Err(MapError::AlreadyMapped) } else { Ok(()) });
                    if !taken {
                        model.pages.insert(vpn, Page::Mapped(frame));
                        model.tables.insert(region);
                    }
                }
                1 => {
                    let taken = model.huge.contains_key(&region) || model.tables.contains(&region);
                    let at = VirtAddr(region * cfg.huge_bytes());
                    let got = twice(&mut pt, &mut |pt, a| pt.map(at, PageSize::Huge, frame, 0, a));
                    prop_assert_eq!(got, if taken { Err(MapError::AlreadyMapped) } else { Ok(()) });
                    if !taken {
                        model.huge.insert(region, frame);
                    }
                }
                2 => {
                    let want = match model.huge.get(&region) {
                        Some(&frame) => Ok(Leaf { frame, node: 0, size: PageSize::Huge }),
                        None => model.base(vpn),
                    };
                    prop_assert_eq!(pt.unmap(va), want);
                    if want.is_ok() && model.huge.remove(&region).is_none() {
                        model.pages.remove(&vpn);
                    }
                }
                3 => {
                    let want = model.base(vpn);
                    prop_assert_eq!(pt.remap(va, frame, 0), want);
                    if want.is_ok() {
                        model.pages.insert(vpn, Page::Mapped(frame));
                    }
                }
                4 => {
                    let want = model.base(vpn);
                    prop_assert_eq!(pt.set_swapped(va, knob), want);
                    if want.is_ok() {
                        model.pages.insert(vpn, Page::Swapped(knob));
                    }
                }
                5 => {
                    let swapped = matches!(model.pages.get(&vpn), Some(Page::Swapped(_)));
                    let want = if swapped { Ok(()) } else { Err(MapError::NotMapped) };
                    prop_assert_eq!(pt.restore_swapped(va, frame, 0), want);
                    if swapped {
                        model.pages.insert(vpn, Page::Mapped(frame));
                    }
                }
                6 => {
                    let huge = model.huge.get(&region).copied();
                    let mut old = None;
                    let got = twice(&mut pt, &mut |pt, a| pt.demote(va, a).map(|l| old = Some(l.frame)));
                    prop_assert_eq!(got.is_ok(), huge.is_some());
                    prop_assert_eq!(old, huge);
                    if let Some(f) = huge {
                        model.huge.remove(&region);
                        model.tables.insert(region);
                        for i in 0..hf {
                            model.pages.insert(region * hf + i, Page::Mapped(f + i));
                        }
                    }
                }
                7 => {
                    let old: Option<Vec<Leaf>> =
                        (0..hf).map(|i| model.base(region * hf + i).ok()).collect();
                    match (pt.promote(va, frame, 0), old) {
                        (Ok((leaves, frames)), Some(old)) => {
                            prop_assert_eq!(leaves, old);
                            returned += frames.len() as u64;
                            for i in 0..hf {
                                model.pages.remove(&(region * hf + i));
                            }
                            model.tables.remove(&region);
                            model.huge.insert(region, frame);
                        }
                        (Err(MapError::NotMapped), None) => {}
                        (got, want) => return Err(TestCaseError::fail(
                            format!("promote region {region}: {got:?}, model {want:?}"))),
                    }
                }
                // Fill the region with base pages so a promote can succeed.
                _ => {
                    for i in 0..hf {
                        let v = region * hf + i;
                        if model.huge.contains_key(&region) || model.pages.contains_key(&v) {
                            continue;
                        }
                        let at = VirtAddr(v * 4096);
                        let got = twice(&mut pt, &mut |pt, a| pt.map(at, PageSize::Base, frame + i, 0, a));
                        prop_assert_eq!(got, Ok(()));
                        model.pages.insert(v, Page::Mapped(frame + i));
                        model.tables.insert(region);
                    }
                }
            }
            prop_assert_eq!(pt.walk(va.add(7)), model.walk(vpn, hf), "step {}", step);
            prop_assert_eq!(handed_out, pt.table_frames() + returned);
        }

        let mut listed = Vec::new();
        pt.for_each_mapped(VirtAddr(0), VirtAddr(1 << 47), &mut |va, leaf| listed.push((va.0, leaf)));
        prop_assert!(listed.windows(2).all(|w| w[0].0 < w[1].0), "for_each_mapped out of order");
        let mut want_listed = Vec::new();
        for region in REGIONS {
            let lo = VirtAddr(region * cfg.huge_bytes());
            let (mut base, mut huge) = (0, 0);
            for vpn in region * hf..(region + 1) * hf {
                let want = model.walk(vpn, hf);
                prop_assert_eq!(pt.walk(VirtAddr(vpn * 4096 + 7)), want, "vpn {}", vpn);
                match want {
                    WalkResult::Mapped(l) if l.size == PageSize::Base => base += 1,
                    WalkResult::Mapped(_) if vpn % hf == 0 => huge += 1,
                    _ => continue,
                }
                if let WalkResult::Mapped(l) = want {
                    want_listed.push((vpn * 4096, l));
                }
            }
            prop_assert_eq!(pt.count_mapped(lo, lo.add(cfg.huge_bytes())), (base, huge));
        }
        prop_assert_eq!(listed, want_listed);
    }
}
