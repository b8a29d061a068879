//! End-to-end integration tests spanning the whole stack:
//! physmem → vm → os → graph → workloads → core.
//!
//! Each test runs one claim of `graphmem_core::claims` at the `tiny`
//! scale (scale-15 graphs on 64 KiB huge pages, so each grid runs in
//! seconds while still exercising the huge-page machinery). The
//! predicates, with their thresholds, live in the claims registry; the
//! same claims regenerate the paper's figures through `graphmem claims`.

use graphmem_core::claims::{self, Scale, Status};
use graphmem_core::SupervisorConfig;

/// Run claim `id` at `tiny` and fail with its findings unless it holds.
fn holds(id: &str) {
    let claim = claims::find(id).expect("registered claim");
    let outcome = claims::run(&[claim], Scale::Tiny, &SupervisorConfig::default())
        .expect("supervision failed");
    match &outcome.claims[0].status {
        Status::Holds => {}
        other => panic!("{id} ({}): {other:?}", claim.statement),
    }
}

/// Paper §2.2 / Fig. 3: high 4 KiB DTLB miss rates, cut by THP.
#[test]
fn tlb_miss_rates_match_paper_shape() {
    holds("fig03");
}

/// Paper Fig. 5: huge pages on the property array capture most of the
/// system-wide THP speedup.
#[test]
fn property_array_is_where_huge_pages_matter() {
    holds("fig05");
}

/// Paper Fig. 7 / §4.3.1: under pressure, natural allocation order
/// starves the property array of huge pages; property-first keeps them.
#[test]
fn allocation_order_decides_who_gets_huge_pages_under_pressure() {
    holds("fig07");
}

/// Paper Fig. 9: THP coverage declines as non-movable fragmentation
/// rises, while the 4 KiB baseline is unaffected.
#[test]
fn fragmentation_erodes_thp_but_not_baseline() {
    holds("fig09");
}

/// Paper §4.3.1 "high memory pressure": oversubscription swaps and slows
/// both page policies.
#[test]
fn oversubscription_thrashes_both_policies() {
    holds("fig07b");
}

/// Paper §5: DBG + selective THP recovers most of the constrained-THP gap
/// using a sliver of huge-page memory.
#[test]
fn selective_thp_with_dbg_is_memory_efficient() {
    holds("headline");
}

/// Fig. 11 contrast: on the ID-shuffled kron input, DBG makes low
/// selectivity far more effective than the original order.
#[test]
fn dbg_concentrates_benefit_at_low_selectivity() {
    holds("fig11");
}

/// All three kernels produce native-identical results under adversarial
/// memory conditions (fragmentation + pressure + swap).
#[test]
fn correctness_under_adversarial_memory_conditions() {
    holds("verified");
}

/// Reordering ablation: a random order is strictly worse than DBG.
#[test]
fn reordering_ablation() {
    holds("reorderings");
}

/// Telemetry is pure observation: tracing every event kind and sampling
/// every epoch leaves the simulation byte-identical.
#[test]
fn telemetry_does_not_perturb_the_simulation() {
    holds("telemetry");
}

/// Extension (paper §2.3): explicit hugetlbfs reservation survives total
/// fragmentation while THP collapses.
#[test]
fn hugetlbfs_reservation_survives_total_fragmentation() {
    holds("hugetlbfs");
}
