//! Recency-ordered LRU sets, shared by the data caches, the TLBs and the
//! page-walk caches.
//!
//! Every LRU set in this crate is a slice kept in recency order: index 0
//! is the most-recently-used way and invalid ways sit at the tail. A hit
//! moves its way to the front. A fill writes the tail way — the LRU way,
//! or an invalid one while the set is not full — and moves it to the
//! front. That is the victim classic stamp LRU picks ("first invalid way,
//! else least recently stamped"), with no clock and no stamps, and n
//! back-to-back hits on one way leave the same order as a single hit.

/// Key of an invalid way. No line address, TLB probe key or page-walk
/// prefix equals it.
pub(crate) const INVALID: u64 = u64::MAX;

/// Probe `set` for `key`; a hit moves it to the front.
#[inline]
pub(crate) fn hit(set: &mut [u64], key: u64) -> bool {
    let w = set.iter().position(|&k| k == key);
    w.map(|w| move_to_front(set, w)).is_some()
}

/// Probe `set` for `key`, filling it on a miss: a hit moves it to the
/// front, a miss writes it over the tail way (the LRU way, or an invalid
/// one) and moves that to the front. Returns whether it hit.
#[inline]
pub(crate) fn touch(set: &mut [u64], key: u64) -> bool {
    let hit = set.iter().position(|&k| k == key);
    let w = hit.unwrap_or(set.len() - 1);
    set[w] = key;
    move_to_front(set, w);
    hit.is_some()
}

/// Move `set[w]` to the front, shifting `set[..w]` down one way.
///
/// The loop does not avoid `memmove`: LLVM recognises the shift and, with
/// rustc 1.95, lowers it to a glibc `memmove` call like
/// `rotate_right`/`copy_within` would be. A release perfbench build calls
/// it from 3 sites in `CacheHierarchy::access`, 4 in
/// `MemorySystem::access_slow` and 1 each in `SetAssocTlb::lookup` and
/// `insert`. A rotate that carries the ways in registers instead measured
/// no faster in place, so the plain loop stays.
#[inline]
pub(crate) fn move_to_front<T: Copy>(set: &mut [T], w: usize) {
    let v = set[w];
    let mut i = w;
    while i > 0 {
        set[i] = set[i - 1];
        i -= 1;
    }
    set[0] = v;
}

#[cfg(test)]
mod tests {
    //! Reference-LRU oracle: a deliberately naive model — an explicit
    //! last-use counter per entry and a linear minimum search for the
    //! victim — driven against every recency-ordered structure with random
    //! operations. Hit/miss outcomes, evicted entries and occupancy must
    //! agree step by step.

    use crate::addr::PageSize;
    use crate::cache::{CacheGeometry, CacheHierarchy, CacheLevel};
    use crate::pwc::PageWalkCaches;
    use crate::tlb::{SetAssocTlb, TlbEntry};
    use proptest::prelude::*;

    /// One set-associative LRU array: `sets[s]` holds `(key, last_use)`
    /// for each valid way, in no particular order.
    struct Oracle {
        sets: Vec<Vec<(u64, u64)>>,
        ways: usize,
        now: u64,
    }

    impl Oracle {
        fn new(sets: usize, ways: usize) -> Self {
            Oracle {
                sets: vec![Vec::new(); sets],
                ways,
                now: 0,
            }
        }

        fn set(&mut self, index: u64) -> &mut Vec<(u64, u64)> {
            let n = self.sets.len() as u64;
            &mut self.sets[(index % n) as usize]
        }

        /// Probe; a hit refreshes the entry's last use.
        fn lookup(&mut self, index: u64, key: u64) -> bool {
            self.now += 1;
            let now = self.now;
            let hit = self.set(index).iter_mut().find(|(k, _)| *k == key);
            hit.map(|e| e.1 = now).is_some()
        }

        /// Fill `key` (refreshing it if resident); returns the evicted key.
        fn insert(&mut self, index: u64, key: u64) -> Option<u64> {
            if self.lookup(index, key) {
                return None;
            }
            let (now, ways) = (self.now, self.ways);
            let set = self.set(index);
            let mut evicted = None;
            if set.len() == ways {
                let lru = (0..ways).min_by_key(|&i| set[i].1).expect("full set");
                evicted = Some(set.swap_remove(lru).0);
            }
            set.push((key, now));
            evicted
        }

        fn invalidate(&mut self, index: u64, key: u64) {
            self.set(index).retain(|(k, _)| *k != key);
        }

        fn flush(&mut self) {
            self.sets.iter_mut().for_each(Vec::clear);
        }

        fn occupancy(&self) -> usize {
            self.sets.iter().map(Vec::len).sum()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Data caches: each level is an oracle array, probed L1 → L3 and
        /// filled on the way out; `charge_l1_hits(n)` is n L1 hits.
        #[test]
        fn cache_hierarchy_matches_reference_lru(
            ops in proptest::collection::vec((0u64..48, 0u8..8, 1u64..5), 1..400),
        ) {
            // L1 2 sets x 2 ways, L2 2 x 4, L3 4 x 4.
            let g = |size_bytes, ways| CacheGeometry { size_bytes, ways, line_bytes: 64, hashed_index: false };
            let mut c = CacheHierarchy::new(g(256, 2), g(512, 4), g(1024, 4));
            let mut levels = [Oracle::new(2, 2), Oracle::new(2, 4), Oracle::new(4, 4)];
            let mut last_line = None;
            for (line, op, n) in ops {
                match (op, last_line) {
                    // A bulk charge is legal right after a real access.
                    (0, Some(prev)) => {
                        c.charge_l1_hits(prev * 64 + 8, n);
                        for _ in 0..n {
                            prop_assert!(levels[0].lookup(prev, prev));
                        }
                    }
                    (1, _) if line % 8 == 0 => {
                        c.flush();
                        levels.iter_mut().for_each(Oracle::flush);
                        last_line = None;
                    }
                    _ => {
                        let level = c.access(line * 64 + 8);
                        let mut expect = CacheLevel::Memory;
                        let names = [CacheLevel::L1, CacheLevel::L2, CacheLevel::L3];
                        for (o, name) in levels.iter_mut().zip(names) {
                            if o.lookup(line, line) {
                                expect = name;
                                break;
                            }
                            o.insert(line, line);
                        }
                        prop_assert_eq!(level, expect, "line {}", line);
                        last_line = Some(line);
                    }
                }
                prop_assert_eq!(c.occupancy(), levels.each_ref().map(Oracle::occupancy));
            }
        }

        /// TLBs: a unified 4-set x 4-way array holding both page sizes,
        /// under lookups, fills, bulk hit charges, invalidations and
        /// flushes. Evicted entries are what telemetry reports as
        /// `TlbEvict`, so they must match exactly.
        #[test]
        fn tlb_matches_reference_lru(
            ops in proptest::collection::vec((0u8..10, 0u64..24, any::<bool>()), 1..400),
        ) {
            let mut t = SetAssocTlb::new(16, 4);
            let mut o = Oracle::new(4, 4);
            for (op, vpn, huge) in ops {
                let size = if huge { PageSize::Huge } else { PageSize::Base };
                let key = vpn << 1 | huge as u64;
                match op {
                    0..=3 => {
                        let hit = t.lookup(vpn, size);
                        prop_assert_eq!(hit.is_some(), o.lookup(vpn, key));
                        if let Some(e) = hit {
                            prop_assert_eq!((e.vpn, e.size, e.frame), (vpn, size, vpn * 7));
                            // A bulk hit charge: the oracle takes a second
                            // hit, the TLB needs no update at all.
                            prop_assert!(t.is_mru(vpn, size));
                            prop_assert!(o.lookup(vpn, key));
                        }
                    }
                    4..=7 => {
                        let evicted = t.insert(TlbEntry { vpn, size, frame: vpn * 7, node: 0 });
                        let expect = o.insert(vpn, key).map(|k| (k, (k >> 1) * 7));
                        let got = evicted.map(|e| (e.vpn << 1 | (e.size == PageSize::Huge) as u64, e.frame));
                        prop_assert_eq!(got, expect);
                    }
                    8 => {
                        t.invalidate(vpn, size);
                        o.invalidate(vpn, key);
                    }
                    _ => {
                        t.flush();
                        o.flush();
                    }
                }
                prop_assert_eq!(t.occupancy() as usize, o.occupancy());
            }
        }

        /// Page-walk caches: each level is a fully-associative oracle;
        /// `deepest_hit` probes deepest-first and stops at the first hit,
        /// `fill` refreshes or inserts levels `0..filled`.
        #[test]
        fn pwc_matches_reference_lru(
            ops in proptest::collection::vec((0u8..8, 0u64..64, 1usize..4), 1..300),
        ) {
            let caps = [2usize, 3, 4];
            let shifts = [4u8, 2, 0];
            let mut p = PageWalkCaches::new([2, 3, 4], shifts);
            let mut levels = caps.map(|cap| Oracle::new(1, cap));
            for (op, vpn, depth) in ops {
                match op {
                    0..=3 => {
                        let mut expect = None;
                        for l in (0..depth).rev() {
                            if levels[l].lookup(0, vpn >> shifts[l]) {
                                expect = Some(l);
                                break;
                            }
                        }
                        prop_assert_eq!(p.deepest_hit(vpn, depth), expect);
                    }
                    4..=6 => {
                        p.fill(vpn, depth);
                        for (l, o) in levels.iter_mut().enumerate().take(depth) {
                            o.insert(0, vpn >> shifts[l]);
                        }
                    }
                    _ if depth == 3 => {
                        p.flush();
                        levels.iter_mut().for_each(Oracle::flush);
                    }
                    _ => {
                        p.invalidate_leaf_dir(vpn);
                        levels[2].invalidate(0, vpn >> shifts[2]);
                    }
                }
            }
            for (l, o) in levels.iter().enumerate() {
                prop_assert_eq!(p.occupancy(l), o.occupancy());
            }
        }
    }
}
