//! Property-based integration tests: random configurations through the
//! full stack must stay correct and conserve resources.

use graphmem_core::{Experiment, MemoryCondition, PagePolicy, Preprocessing, Surplus};
use graphmem_graph::Dataset;
use graphmem_os::{PageSize, System, SystemSpec, ThpMode};
use graphmem_workloads::{AllocOrder, Kernel};
use proptest::prelude::*;

fn arb_policy() -> impl Strategy<Value = PagePolicy> {
    prop_oneof![
        Just(PagePolicy::BaseOnly),
        Just(PagePolicy::ThpSystemWide),
        Just(PagePolicy::property_only()),
        (0.0f64..=1.0).prop_map(|fraction| PagePolicy::SelectiveProperty { fraction }),
    ]
}

fn arb_condition() -> impl Strategy<Value = MemoryCondition> {
    prop_oneof![
        Just(MemoryCondition::unbounded()),
        (0.0f64..=0.75).prop_map(MemoryCondition::fragmented),
        (0.0f64..=0.3).prop_map(|f| MemoryCondition::pressured(Surplus::FractionOfWss(f))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any (policy, condition, order, preprocessing) combination yields a
    /// verified run with sane accounting.
    #[test]
    fn random_configurations_stay_correct(
        policy in arb_policy(),
        cond in arb_condition(),
        property_first in any::<bool>(),
        preprocess in prop_oneof![
            Just(Preprocessing::None),
            Just(Preprocessing::Dbg),
            Just(Preprocessing::DegreeSort),
        ],
        kernel_idx in 0usize..3,
    ) {
        let kernel = Kernel::ALL[kernel_idx];
        let order = if property_first {
            AllocOrder::PropertyFirst
        } else {
            AllocOrder::Natural
        };
        let r = Experiment::builder(Dataset::Wiki, kernel)
            .scale(12)
            .huge_order(4)
            .policy(policy)
            .condition(cond)
            .alloc_order(order)
            .preprocessing(preprocess).build().expect("valid config")
            .run();
        prop_assert!(r.verified, "wrong result under {policy:?} {cond:?}");
        prop_assert!(r.compute_cycles > 0);
        prop_assert!(r.total_huge_bytes <= r.footprint_bytes + 2 * r.property_bytes);
        prop_assert!(r.property_huge_bytes <= r.total_huge_bytes);
        let f = r.huge_memory_fraction();
        prop_assert!((0.0..=1.5).contains(&f), "huge fraction {f}");
        if matches!(policy, PagePolicy::BaseOnly) {
            prop_assert_eq!(r.total_huge_bytes, 0);
        }
    }

    /// Memory conservation across arbitrary touch/release cycles: after
    /// releasing every region, only page-table frames remain allocated.
    #[test]
    fn release_conserves_frames(sizes in proptest::collection::vec(1u64..64, 1..8)) {
        let mut spec = SystemSpec::scaled_demo();
        spec.thp.mode = ThpMode::Always;
        let mut sys = System::new(spec);
        let free0 = sys.zone(1).free_frames();
        let huge = sys.geometry().bytes(PageSize::Huge);
        let regions: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(i, &blocks)| {
                let a = sys.mmap(blocks * huge / 2, &format!("r{i}"));
                sys.populate(a, blocks * huge / 2);
                a
            })
            .collect();
        for a in regions {
            sys.release_region(a);
        }
        let table_frames = free0 - sys.zone(1).free_frames();
        // Page tables (incl. leftover interior nodes) remain; nothing else.
        prop_assert!(
            table_frames < 600,
            "leaked {table_frames} frames beyond page tables"
        );
        sys.zone(1).assert_consistent();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Epoch sampling at any interval yields a well-ordered series whose
    /// per-epoch deltas telescope back to the final cumulative sample, and
    /// that final sample reconciles with the run's aggregate counters.
    #[test]
    fn sampled_series_reconciles_with_aggregates(
        interval in 20_000u64..2_000_000,
        policy in arb_policy(),
        kernel_idx in 0usize..3,
    ) {
        let r = Experiment::builder(Dataset::Wiki, Kernel::ALL[kernel_idx])
            .scale(12)
            .huge_order(4)
            .policy(policy)
            .sample_interval(interval).build().expect("valid config")
            .attribution(true)
            .run();
        prop_assert!(r.verified);
        let series = r.series.as_ref().expect("sampling was enabled");
        prop_assert!(!series.is_empty());
        prop_assert_eq!(series.interval(), interval);

        // Samples are time-ordered and cumulative counters never decrease.
        let samples = series.samples();
        for w in samples.windows(2) {
            prop_assert!(w[0].cycle < w[1].cycle);
            prop_assert!(w[0].accesses <= w[1].accesses);
            prop_assert!(w[0].faults <= w[1].faults);
            prop_assert!(w[0].kernel_cycles <= w[1].kernel_cycles);
        }

        // The memory-state series is sampled and closed on the same cycles.
        let memory = r.attribution.as_ref().and_then(|a| a.memory.as_ref());
        let memory_cycles: Vec<u64> =
            memory.expect("attribution was on").samples().iter().map(|s| s.cycle).collect();
        let metrics_cycles: Vec<u64> = samples.iter().map(|s| s.cycle).collect();
        prop_assert_eq!(memory_cycles, metrics_cycles);

        // Telescoping: delta sums reproduce the final cumulative sample.
        let deltas = series.deltas();
        let last = series.last().unwrap();
        prop_assert_eq!(deltas.iter().map(|d| d.cycle).sum::<u64>(), last.cycle);
        prop_assert_eq!(deltas.iter().map(|d| d.accesses).sum::<u64>(), last.accesses);
        prop_assert_eq!(deltas.iter().map(|d| d.faults).sum::<u64>(), last.faults);
        prop_assert_eq!(
            deltas.iter().map(|d| d.translation_cycles).sum::<u64>(),
            last.translation_cycles
        );
        prop_assert_eq!(
            deltas.iter().map(|d| d.kernel_cycles).sum::<u64>(),
            last.kernel_cycles
        );

        // The closing sample equals the report's end-of-run OS aggregates.
        prop_assert_eq!(last.faults, r.os.faults);
        prop_assert_eq!(last.huge_faults, r.os.huge_faults);
        prop_assert_eq!(last.huge_fallbacks, r.os.huge_fallbacks);
        prop_assert_eq!(last.promotions, r.os.promotions);
        prop_assert_eq!(last.demotions, r.os.demotions);
        prop_assert_eq!(last.khugepaged_scans, r.os.khugepaged_scans);
        prop_assert_eq!(last.direct_compactions, r.os.direct_compactions);
        prop_assert_eq!(last.frames_migrated, r.os.frames_migrated);
        prop_assert_eq!(last.swap_outs, r.os.swap_outs);
        prop_assert_eq!(last.swap_ins, r.os.swap_ins);
        prop_assert_eq!(last.kernel_cycles, r.os.kernel_cycles);
    }
}
