//! Set-associative translation lookaside buffers.

use crate::addr::PageSize;
use crate::lru::{move_to_front, INVALID};

/// An entry cached by a TLB: a virtual page number translated to the base
/// frame of its backing physical page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TlbEntry {
    /// Page number at this entry's page size.
    pub vpn: u64,
    /// Page size of the mapping.
    pub size: PageSize,
    /// First base frame of the backing physical page.
    pub frame: u64,
    /// NUMA node holding the frame.
    pub node: u32,
}

/// A set-associative, LRU TLB array.
///
/// A single array holds entries of one page size (L1 DTLBs) or of several
/// page sizes (the unified STLB — looked up once per size by the caller,
/// matching how hardware probes a unified L2 TLB with multiple hash
/// functions). Sets are kept in recency order: most recently used way
/// first, invalid ways last.
#[derive(Debug)]
pub struct SetAssocTlb {
    /// `sets - 1`; the set count is a power of two, so the set index is a
    /// mask — a hardware divide here would sit on every simulated access.
    set_mask: u64,
    ways: u32,
    /// Packed probe keys parallel to `entries`: `vpn << 1 | huge`, most
    /// recently used first, with [`INVALID`] ways trailing. Probes scan 8
    /// bytes per way instead of a whole `TlbEntry`; this array is the
    /// hottest state in the simulator.
    keys: Vec<u64>,
    /// Payloads parallel to `keys`; only meaningful where the key is valid.
    entries: Vec<TlbEntry>,
}

/// Pack a (vpn, size) probe into one comparable word. VPNs fit in 48 bits,
/// so the shift cannot collide with the [`INVALID`] sentinel.
#[inline]
fn probe_key(vpn: u64, size: PageSize) -> u64 {
    (vpn << 1) | (size == PageSize::Huge) as u64
}

impl SetAssocTlb {
    /// Build a TLB with `entries` total entries and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a multiple of `ways` or the set count is
    /// not a power of two.
    pub fn new(entries: u32, ways: u32) -> Self {
        assert!(entries > 0 && ways > 0, "TLB must have entries");
        assert_eq!(entries % ways, 0, "entries must be a multiple of ways");
        let sets = (entries / ways) as u64;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let placeholder = TlbEntry {
            vpn: 0,
            size: PageSize::Base,
            frame: 0,
            node: 0,
        };
        SetAssocTlb {
            set_mask: sets - 1,
            ways,
            keys: vec![INVALID; entries as usize],
            entries: vec![placeholder; entries as usize],
        }
    }

    /// Total entry count.
    pub fn capacity(&self) -> u32 {
        self.entries.len() as u32
    }

    #[inline]
    fn set_base(&self, vpn: u64) -> usize {
        ((vpn & self.set_mask) as usize) * self.ways as usize
    }

    /// Way of probe key `key` within the set starting at `base`, if
    /// resident. Invalid ways never match a key.
    #[inline]
    fn find(&self, base: usize, key: u64) -> Option<usize> {
        self.keys[base..base + self.ways as usize]
            .iter()
            .position(|&k| k == key)
    }

    /// Make way `w` of the set at `base` the most recently used.
    #[inline]
    fn move_to_front(&mut self, base: usize, w: usize) {
        let ways = self.ways as usize;
        move_to_front(&mut self.keys[base..base + ways], w);
        move_to_front(&mut self.entries[base..base + ways], w);
    }

    /// Look up `vpn` of page size `size`; refreshes LRU on hit.
    #[inline]
    pub(crate) fn lookup(&mut self, vpn: u64, size: PageSize) -> Option<TlbEntry> {
        let base = self.set_base(vpn);
        let w = self.find(base, probe_key(vpn, size))?;
        self.move_to_front(base, w);
        Some(self.entries[base])
    }

    /// Insert an entry, evicting the LRU way of its set. Returns the
    /// displaced entry when a *different* valid translation was evicted
    /// (telemetry uses this; an in-place update or fill of an empty way
    /// returns `None`).
    pub(crate) fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
        let base = self.set_base(entry.vpn);
        let key = probe_key(entry.vpn, entry.size);
        // An update refreshes the resident way; a fill takes the tail way.
        let w = self.find(base, key).unwrap_or(self.ways as usize - 1);
        let out = (self.keys[base + w] != key && self.keys[base + w] != INVALID)
            .then(|| self.entries[base + w]);
        self.keys[base + w] = key;
        self.entries[base + w] = entry;
        self.move_to_front(base, w);
        out
    }

    /// Whether `vpn`/`size` is the most recently used way of its set: hits
    /// on it then leave the set exactly as it is, which is why bulk hit
    /// charges need no TLB update. For debug assertions and tests.
    pub(crate) fn is_mru(&self, vpn: u64, size: PageSize) -> bool {
        self.keys[self.set_base(vpn)] == probe_key(vpn, size)
    }

    /// Non-mutating residency check (no LRU refresh) — only for debug
    /// assertions, where a real probe would perturb the state being checked.
    #[cfg(debug_assertions)]
    pub(crate) fn resident(&self, vpn: u64, size: PageSize) -> bool {
        self.find(self.set_base(vpn), probe_key(vpn, size))
            .is_some()
    }

    /// Drop the entry for `vpn`/`size` if present. The ways behind it move
    /// up one, keeping invalid ways at the tail.
    pub(crate) fn invalidate(&mut self, vpn: u64, size: PageSize) {
        let base = self.set_base(vpn);
        if let Some(w) = self.find(base, probe_key(vpn, size)) {
            let end = base + self.ways as usize;
            self.keys[base + w..end].rotate_left(1);
            self.entries[base + w..end].rotate_left(1);
            self.keys[end - 1] = INVALID;
        }
    }

    /// Diagnostic lookup: whether `vpn`/`size` is resident (refreshes LRU,
    /// like a real probe). Exposed for tests and model checking; the MMU
    /// uses the richer crate-internal entry API.
    pub fn probe(&mut self, vpn: u64, size: PageSize) -> bool {
        self.lookup(vpn, size).is_some()
    }

    /// Diagnostic insert of a translation with placeholder physical
    /// placement. Exposed for tests and model checking.
    pub fn fill_for_test(&mut self, vpn: u64, size: PageSize) {
        self.insert(TlbEntry {
            vpn,
            size,
            frame: 0,
            node: 0,
        });
    }

    /// Drop everything (full TLB shootdown / context switch).
    pub fn flush(&mut self) {
        self.keys.fill(INVALID);
    }

    /// Append each way's probe key, frame and node, in way order; an
    /// invalid way contributes its key and two zeros (its stale payload is
    /// never read).
    pub(crate) fn push_ways(&self, out: &mut Vec<u64>) {
        for (&key, e) in self.keys.iter().zip(&self.entries) {
            let (frame, node) = if key == INVALID {
                (0, 0)
            } else {
                (e.frame, u64::from(e.node))
            };
            out.extend([key, frame, node]);
        }
    }

    /// Number of currently valid entries (diagnostics).
    pub fn occupancy(&self) -> u32 {
        self.keys.iter().filter(|&&k| k != INVALID).count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(vpn: u64) -> TlbEntry {
        TlbEntry {
            vpn,
            size: PageSize::Base,
            frame: vpn * 10,
            node: 0,
        }
    }

    #[test]
    fn hit_after_insert() {
        let mut t = SetAssocTlb::new(8, 2);
        t.insert(e(5));
        assert_eq!(t.lookup(5, PageSize::Base).unwrap().frame, 50);
        assert!(t.lookup(5, PageSize::Huge).is_none());
        assert!(t.lookup(6, PageSize::Base).is_none());
    }

    #[test]
    fn conflict_eviction_is_lru() {
        let mut t = SetAssocTlb::new(8, 2); // 4 sets
                                            // vpns 0, 4, 8 all map to set 0.
        t.insert(e(0));
        t.insert(e(4));
        t.lookup(0, PageSize::Base); // refresh 0; 4 becomes LRU
        t.insert(e(8)); // evicts 4
        assert!(t.lookup(0, PageSize::Base).is_some());
        assert!(t.lookup(4, PageSize::Base).is_none());
        assert!(t.lookup(8, PageSize::Base).is_some());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut t = SetAssocTlb::new(4, 4);
        t.insert(e(1));
        let mut e2 = e(1);
        e2.frame = 99;
        t.insert(e2);
        assert_eq!(t.occupancy(), 1);
        assert_eq!(t.lookup(1, PageSize::Base).unwrap().frame, 99);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut t = SetAssocTlb::new(4, 2);
        t.insert(e(1));
        t.insert(e(2));
        t.invalidate(1, PageSize::Base);
        assert!(t.lookup(1, PageSize::Base).is_none());
        assert!(t.lookup(2, PageSize::Base).is_some());
        t.flush();
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn mixed_sizes_coexist_in_unified_array() {
        let mut t = SetAssocTlb::new(8, 4);
        t.insert(e(3));
        t.insert(TlbEntry {
            vpn: 3,
            size: PageSize::Huge,
            frame: 512,
            node: 1,
        });
        assert_eq!(t.lookup(3, PageSize::Base).unwrap().frame, 30);
        assert_eq!(t.lookup(3, PageSize::Huge).unwrap().frame, 512);
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn bad_geometry_panics() {
        let _ = SetAssocTlb::new(7, 2);
    }

    /// Bulk hit charges need no TLB update: after one lookup the entry is
    /// most recently used, and any number of further lookups leave the set
    /// exactly as it is.
    #[test]
    fn bulk_hit_charge_matches_scalar_lookups() {
        for n in [1u64, 2, 7, 1024] {
            let mut scalar = SetAssocTlb::new(8, 2);
            let mut bulk = SetAssocTlb::new(8, 2);
            for t in [&mut scalar, &mut bulk] {
                t.insert(e(0));
                t.insert(e(4)); // same set as 0
                assert!(t.lookup(0, PageSize::Base).is_some());
            }
            for _ in 0..n {
                assert!(scalar.lookup(0, PageSize::Base).is_some());
            }
            assert!(bulk.is_mru(0, PageSize::Base));
            assert_eq!(scalar.keys, bulk.keys);
            // The LRU consequence: vpn 4 is the victim in both.
            assert_eq!(scalar.insert(e(8)), Some(e(4)));
            assert_eq!(bulk.insert(e(8)), Some(e(4)));
        }
    }
}
