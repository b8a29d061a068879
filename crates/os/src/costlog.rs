//! The per-access cost log of a recorded steady epoch: enough of each
//! access's outcome to find, in a replay of the epoch, the access after
//! which each daemon deadline falls and what the daemon would read there
//! (see [`SteadyEpoch`](crate::SteadyEpoch)).

use crate::governor::Signal;

/// What one simulated steady epoch's accesses did, access by access.
///
/// - Cycles, run-length coded as records: one *leader* access at a logged
///   cost, then `n` *followers* at the L1-hit cost. That is an L1 line
///   leader and the accesses it proves resident, or a gather's load and
///   the store that rides its line. A record takes one byte when its cost
///   is among the log's first 15 distinct leader costs and `n < 15`; a
///   nibble of 15 escapes to a varint after the byte.
/// - The translation cursor: one bit per access, set when the access hit
///   the cursor or would have, had no daemon pass cleared it in between.
/// - Attribution, when it is on: for each access whose bit is clear (a
///   probe of a new page; only those can change the region or pay for
///   translation), the region it was charged to and its translation
///   cycles, coded like a record: one byte for a region under 15 and one
///   of the first 15 distinct translation costs (0 is the first).
#[derive(Debug)]
pub(crate) struct CostLog {
    /// Cycles of one follower: an L1 data hit on the local node.
    follower: u64,
    records: Vec<u8>,
    /// Distinct leader costs, in first-seen order; a record's code
    /// indexes this table.
    costs: Vec<u64>,
    /// The record still open for followers: `(code, n)`.
    open: Option<(u64, u64)>,
    len: u64,
    hits: Vec<u64>,
    ones: u64,
    probes: Option<Vec<u8>>,
    /// Distinct translation costs of the probes, 0 first.
    translations: Vec<u64>,
    /// The region the first access is charged to if it hits the cursor.
    start_region: usize,
    /// While recording: the region accesses are charged to.
    region: usize,
    /// While recording: the extent of the page the cursor would hold had
    /// no pass cleared it, as `(start, bytes)`.
    shadow: (u64, u64),
    /// Set when a probe of the cursor's page was charged to another
    /// region or paid for translation: the log would then misplace
    /// signals, and the epoch must not be recorded.
    inexact: bool,
    /// While recording: whether due events ran after the last access.
    after_events: bool,
    /// Accesses that probed only because a pass had cleared the cursor.
    cleared: u64,
}

impl CostLog {
    /// An empty log. `attribution` says whether per-region signals are
    /// logged; `start_region` is the attribution region the cursor's page
    /// belongs to, and `cursor` the cursor's extent (`(u64::MAX, 0)` when
    /// it is empty).
    pub(crate) fn new(
        follower: u64,
        attribution: bool,
        start_region: usize,
        cursor: (u64, u64),
    ) -> Self {
        CostLog {
            follower,
            records: Vec::new(),
            costs: Vec::new(),
            open: None,
            len: 0,
            hits: Vec::new(),
            ones: 0,
            probes: attribution.then(Vec::new),
            translations: vec![0],
            start_region,
            region: start_region,
            shadow: cursor,
            inexact: false,
            after_events: false,
            cleared: 0,
        }
    }

    /// Log one access: its own cycles (no daemon charges) and, for a
    /// probe (a cursor miss), the region it was charged to, its
    /// translation cycles and `page`, the extent of the page it
    /// translated.
    pub(crate) fn push(&mut self, addr: u64, cycles: u64, probe: Option<(usize, u64, (u64, u64))>) {
        let hit = match probe {
            None => true,
            Some((region, translation, page)) => {
                let would_hit = addr.wrapping_sub(self.shadow.0) < self.shadow.1;
                if !would_hit {
                    if let Some(probes) = &mut self.probes {
                        let code = code_of(&mut self.translations, translation);
                        put_pair(probes, region as u64, code);
                    }
                    self.region = region;
                } else {
                    // The cursor's page is resident and most recently used
                    // in its L1 DTLB, and it lies in the cursor's region.
                    self.inexact |=
                        translation != 0 || (self.probes.is_some() && region != self.region);
                    if self.after_events {
                        self.cleared += 1;
                    }
                }
                self.shadow = page;
                would_hit
            }
        };
        self.after_events = false;
        self.push_cycles(cycles);
        if self.len.is_multiple_of(64) {
            self.hits.push(0);
        }
        if hit {
            if let Some(word) = self.hits.last_mut() {
                *word |= 1 << (self.len % 64);
            }
            self.ones += 1;
        }
        self.len += 1;
    }

    /// Note that due events ran after the access just logged: they
    /// cleared the cursor, so the next access probes even where it would
    /// have hit.
    pub(crate) fn events_ran(&mut self) {
        self.after_events = true;
    }

    fn push_cycles(&mut self, cycles: u64) {
        if cycles == self.follower {
            if let Some((_, n)) = &mut self.open {
                *n += 1;
                return;
            }
        }
        self.close_record();
        self.open = Some((code_of(&mut self.costs, cycles), 0));
    }

    fn close_record(&mut self) {
        if let Some((code, n)) = self.open.take() {
            put_pair(&mut self.records, code, n);
        }
    }

    /// Close the log once the epoch has ended, releasing spare capacity.
    pub(crate) fn finish(mut self) -> Self {
        self.close_record();
        self.records.shrink_to_fit();
        self.hits.shrink_to_fit();
        if let Some(p) = &mut self.probes {
            p.shrink_to_fit();
        }
        self
    }

    /// Whether the log places every access's outcome exactly.
    pub(crate) fn exact(&self) -> bool {
        !self.inexact
    }

    /// Accesses logged.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Cycles of a follower.
    pub(crate) fn follower(&self) -> u64 {
        self.follower
    }

    /// `(hits, misses)` of the translation cursor had no pass cleared it.
    pub(crate) fn uncleared_memo(&self) -> (u64, u64) {
        (self.ones, self.len - self.ones)
    }

    /// `(hits, misses)` of the cursor as the recorded epoch counted them.
    pub(crate) fn recorded_memo(&self) -> (u64, u64) {
        (
            self.ones - self.cleared,
            self.len - self.ones + self.cleared,
        )
    }

    /// Whether access `k` hit the cursor or would have.
    pub(crate) fn hit(&self, k: u64) -> bool {
        self.hits
            .get((k / 64) as usize)
            .is_some_and(|w| w >> (k % 64) & 1 == 1)
    }

    /// The first access at or after `from` that missed the cursor.
    fn next_miss(&self, from: u64) -> Option<u64> {
        let mut w = (from / 64) as usize;
        let mut word = !self.hits.get(w)? & (u64::MAX << (from % 64));
        loop {
            if word != 0 {
                let k = w as u64 * 64 + u64::from(word.trailing_zeros());
                return (k < self.len).then_some(k);
            }
            w += 1;
            word = !*self.hits.get(w)?;
        }
    }

    /// The records, in access order, as `(leader cycles, followers)`.
    pub(crate) fn records(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut at = 0;
        std::iter::from_fn(move || {
            if at == self.records.len() {
                return None;
            }
            let (code, n) = get_pair(&self.records, &mut at);
            Some((self.costs[code as usize], n))
        })
    }

    /// A walk over the per-region governor signals, starting from
    /// `start`, the signals before the first access.
    pub(crate) fn signals(&self, start: Vec<Signal>) -> SignalWalk<'_> {
        SignalWalk {
            log: self,
            signals: start,
            region: self.start_region,
            since: 0,
            next_miss: self.next_miss(0),
            at: 0,
        }
    }
}

/// The per-region governor signals of a logged epoch at increasing
/// accesses (see [`CostLog::signals`]).
#[derive(Debug)]
pub(crate) struct SignalWalk<'a> {
    log: &'a CostLog,
    /// Signals through access `since - 1`.
    signals: Vec<Signal>,
    /// The region accesses from `since` on are charged to.
    region: usize,
    since: u64,
    next_miss: Option<u64>,
    /// Read offset into the log's probe varints.
    at: usize,
}

impl SignalWalk<'_> {
    /// The signals once accesses `0..=k` have been charged. `k` must not
    /// decrease from one call to the next.
    pub(crate) fn through(&mut self, k: u64) -> Vec<Signal> {
        let Some(probes) = &self.log.probes else {
            return self.signals.clone();
        };
        while let Some(m) = self.next_miss.filter(|&m| m <= k) {
            self.charge_segment(m);
            let (region, code) = get_pair(probes, &mut self.at);
            self.region = region as usize;
            self.region_signal().cycles += self.log.translations[code as usize];
            self.next_miss = self.log.next_miss(m + 1);
        }
        self.charge_segment(k + 1);
        self.signals.clone()
    }

    /// Charge accesses `since..end` to the current region.
    fn charge_segment(&mut self, end: u64) {
        let n = end - self.since;
        self.region_signal().accesses += n;
        self.since = end;
    }

    fn region_signal(&mut self) -> &mut Signal {
        if self.region >= self.signals.len() {
            self.signals.resize(self.region + 1, Signal::default());
        }
        &mut self.signals[self.region]
    }
}

/// The code of `v` in `table`, added at the end if it is new.
fn code_of(table: &mut Vec<u64>, v: u64) -> u64 {
    let code = table.iter().position(|&c| c == v).unwrap_or_else(|| {
        table.push(v);
        table.len() - 1
    });
    code as u64
}

/// Append `(a, b)`: one byte of two nibbles, each 15 or more escaping to
/// a varint after the byte.
fn put_pair(out: &mut Vec<u8>, a: u64, b: u64) {
    let (hi, lo) = (a.min(15) as u8, b.min(15) as u8);
    out.push(hi << 4 | lo);
    if hi == 15 {
        put_varint(out, a);
    }
    if lo == 15 {
        put_varint(out, b);
    }
}

fn get_pair(bytes: &[u8], at: &mut usize) -> (u64, u64) {
    let byte = bytes[*at];
    *at += 1;
    let mut a = u64::from(byte >> 4);
    let mut b = u64::from(byte & 15);
    if a == 15 {
        a = get_varint(bytes, at);
    }
    if b == 15 {
        b = get_varint(bytes, at);
    }
    (a, b)
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn get_varint(bytes: &[u8], at: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = bytes[*at];
        *at += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_escapes() {
        let mut log = CostLog::new(4, false, 0, (u64::MAX, 0));
        // Twenty distinct leader costs push codes past the nibble, and a
        // long follower run pushes `n` past it.
        let mut costs = Vec::new();
        for i in 0..20u64 {
            costs.push(10 + i);
            costs.extend(std::iter::repeat_n(4, i as usize * 3));
        }
        costs.push(10);
        costs.extend(std::iter::repeat_n(4, 1000));
        for &c in &costs {
            log.push(0, c, None);
        }
        let log = log.finish();
        assert_eq!(log.len(), costs.len() as u64);
        let mut decoded = Vec::new();
        for (c, n) in log.records() {
            decoded.push(c);
            decoded.extend(std::iter::repeat_n(4, n as usize));
        }
        assert_eq!(decoded, costs);
    }

    #[test]
    fn a_load_and_its_store_take_one_byte() {
        // A gather's load at an L2 or L3 cost, then its store at L1 cost.
        let mut log = CostLog::new(4, false, 0, (u64::MAX, 0));
        for k in 0..1000u64 {
            log.push(0, if k % 3 == 0 { 40 } else { 12 }, None);
            log.push(0, 4, None);
        }
        let log = log.finish();
        assert_eq!(log.records.len(), 1000);
        assert_eq!(log.hits.len(), 2000 / 64 + 1);
    }

    #[test]
    fn a_follower_cost_first_opens_a_record() {
        let mut log = CostLog::new(4, false, 0, (u64::MAX, 0));
        for c in [4, 4, 9, 4] {
            log.push(0, c, None);
        }
        let log = log.finish();
        assert_eq!(log.records().collect::<Vec<_>>(), [(4, 1), (9, 1)]);
    }

    #[test]
    fn cursor_bits_and_cleared_hits() {
        // The cursor holds page [0, 4096); pages are 4 KiB.
        let page = |a: u64| (a & !4095, 4096);
        let mut log = CostLog::new(4, true, 3, (0, 4096));
        log.push(8, 4, None); // 0: cursor hit
        log.events_ran();
        log.push(16, 4, Some((3, 0, page(16)))); // 1: cleared, would hit
        log.push(5000, 30, Some((5, 7, page(5000)))); // 2: a new page
        log.push(5008, 4, None); // 3
        log.events_ran();
        log.push(9000, 30, Some((3, 0, page(9000)))); // 4: a new page
        let log = log.finish();
        assert_eq!(
            (0..5).map(|k| log.hit(k)).collect::<Vec<_>>(),
            [true, true, false, true, false]
        );
        assert_eq!(log.uncleared_memo(), (3, 2));
        assert_eq!(log.recorded_memo(), (2, 3));
        assert_eq!(log.next_miss(0), Some(2));
        assert_eq!(log.next_miss(3), Some(4));
        assert_eq!(log.next_miss(5), None);
        let sig = |accesses, cycles| Signal { accesses, cycles };
        let mut walk = log.signals(vec![sig(100, 50)]);
        assert_eq!(walk.through(1)[3], sig(2, 0));
        let at_3 = walk.through(3);
        assert_eq!((at_3[3], at_3[5]), (sig(2, 0), sig(2, 7)));
        let at_4 = walk.through(4);
        assert_eq!(
            (at_4[0], at_4[3], at_4[5]),
            (sig(100, 50), sig(3, 0), sig(2, 7))
        );
    }

    #[test]
    fn next_miss_crosses_words() {
        let mut log = CostLog::new(4, false, 0, (0, 1 << 20));
        for k in 0..200u64 {
            let probe = (k == 150).then_some((0, 0, (1 << 20, 4096)));
            log.push(if k == 150 { 1 << 20 } else { 8 }, 4, probe);
        }
        let log = log.finish();
        assert_eq!(log.next_miss(0), Some(150));
        assert_eq!(log.next_miss(151), None);
    }
}
