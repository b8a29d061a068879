//! Process-wide translation-memoization statistics.
//!
//! The OS layer's page-run fast path counts, per [`System`], how many
//! simulated accesses were bulk-charged through a remembered translation
//! (hits) versus performed as real probed accesses (misses). Those counters
//! are host-side observability only — they never enter [`RunReport`]s,
//! which must stay bit-identical between engines — so experiments drain
//! them here into process-wide atomics, where the run server's `/metrics`
//! endpoint (and anything else curious about fast-path efficacy) can read
//! them without holding an experiment.
//!
//! [`System`]: graphmem_os::System
//! [`RunReport`]: crate::RunReport

use std::sync::atomic::{AtomicU64, Ordering};

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// Fold one run's memo counters into the process-wide totals.
pub fn record(hits: u64, misses: u64) {
    HITS.fetch_add(hits, Ordering::Relaxed);
    MISSES.fetch_add(misses, Ordering::Relaxed);
}

/// `(hits, misses)` accumulated by every run in this process so far:
/// elements bulk-charged via a remembered translation vs. real MMU probes
/// on the fast path.
pub fn snapshot() -> (u64, u64) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_into_snapshot() {
        let (h0, m0) = snapshot();
        record(10, 3);
        record(5, 0);
        let (h1, m1) = snapshot();
        assert_eq!(h1 - h0, 15);
        assert_eq!(m1 - m0, 3);
    }
}
