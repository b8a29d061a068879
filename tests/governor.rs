//! Closed-loop page-size governor: differential and reconciliation tests.
//!
//! Two guarantees ride on the governor being an *optional* epoch daemon:
//!
//! 1. **Governor-off runs are bit-identical to the pre-governor stack.**
//!    A disabled governor installs no epoch deadline, charges no cycles,
//!    and attaches no report section, so a plain-policy run and a
//!    plan-with-no-governor run must produce byte-identical report JSON.
//!    A governed run's report is pinned by digest next to the
//!    differential harness's oracle verdicts.
//! 2. **Governor counters reconcile.** The totals in `GovernorStats`
//!    must equal the sums of the per-epoch decision series, and every
//!    governor promotion/demotion must appear in the OS-level
//!    khugepaged/demotion counters it drives.

use graphmem_core::{
    Experiment, GovernorConfig, MemoryCondition, PagePolicy, PageSizePlan, RunReport, RunSpec,
};
use graphmem_graph::Dataset;
use graphmem_integration_tests::{assert_fixture_section, fnv1a};
use graphmem_workloads::Kernel;
use proptest::prelude::*;

const ORACLE: &str = include_str!("golden/oracle_digests.txt");

fn tiny_scale(ds: Dataset) -> u8 {
    ds.default_scale() - 4
}

/// A memory condition fragmented enough that promotion denials (and the
/// demotion pass they unlock) actually occur.
fn fragmented() -> MemoryCondition {
    MemoryCondition::fragmented(0.6)
}

fn plan_experiment(kernel: Kernel, plan: PageSizePlan) -> Experiment {
    Experiment::builder(Dataset::Wiki, kernel)
        .scale(tiny_scale(Dataset::Wiki))
        .plan(plan)
        .condition(fragmented())
        .build()
        .expect("valid config")
}

fn run_plan(kernel: Kernel, plan: PageSizePlan) -> RunReport {
    plan_experiment(kernel, plan).run()
}

/// Governor-off runs must be bit-identical to plain policy runs — the
/// plan refactor and the governor hook may not perturb a single cycle —
/// across two kernels.
#[test]
fn governor_off_is_bit_identical_to_plain_policy_runs() {
    for kernel in [Kernel::Bfs, Kernel::Pagerank] {
        let plain = Experiment::builder(Dataset::Wiki, kernel)
            .scale(tiny_scale(Dataset::Wiki))
            .policy(PagePolicy::ThpSystemWide)
            .condition(fragmented())
            .build()
            .expect("valid config")
            .run();
        let planned = run_plan(kernel, PageSizePlan::with_policy(PagePolicy::ThpSystemWide));
        assert_eq!(
            plain.to_json(),
            planned.to_json(),
            "{kernel}: plan-without-governor must not change the run"
        );
        assert!(planned.governor.is_none(), "no governor section when off");
        assert!(
            !planned.to_json().contains("\"governor\""),
            "governor-off JSON must look exactly like pre-governor JSON"
        );
    }
    // And a governed run matches the pinned oracle verdict.
    let plan = PageSizePlan::with_policy(PagePolicy::ThpSystemWide).governed(GovernorConfig {
        epoch_cycles: 200_000,
        promote_cost: 0.5,
        demote_cost: 0.1,
        ..GovernorConfig::default()
    });
    let governed = run_plan(Kernel::Bfs, plan);
    assert!(
        governed.governor.as_ref().is_some_and(|g| g.epochs > 0),
        "the governed run must actually run epochs to be probative"
    );
    let line = format!(
        "bfs {} {}\n",
        fnv1a(governed.to_json().as_bytes()),
        plan_experiment(Kernel::Bfs, plan).config_hash()
    );
    assert_fixture_section(ORACLE, "governed", &line);
}

/// Same governed spec, run repeatedly → byte-identical reports. The
/// governor is driven entirely by the simulated clock and deterministic
/// counters, so repetition is exact, not just statistically close.
#[test]
fn governed_runs_are_deterministic() {
    let spec = RunSpec {
        dataset: Dataset::Wiki,
        kernel: Kernel::Pagerank,
        scale: Some(tiny_scale(Dataset::Wiki)),
        plan: PageSizePlan::with_policy(PagePolicy::BaseOnly).governed(GovernorConfig {
            epoch_cycles: 200_000,
            promote_cost: 0.5,
            demote_cost: 0.1,
            ..GovernorConfig::default()
        }),
        condition: fragmented(),
        ..RunSpec::default()
    };
    let a = spec.to_experiment().expect("valid spec").run();
    let b = spec.to_experiment().expect("valid spec").run();
    assert_eq!(a.to_json(), b.to_json(), "governed runs must be repeatable");
    let gov = a.governor.expect("governor section attached");
    assert!(gov.epochs > 0, "must run at least one epoch");
    // The spec round-trips through the wire with the governor intact.
    let wired = RunSpec::from_json(&spec.to_json()).expect("wire spec parses");
    assert_eq!(wired, spec);
    assert_eq!(
        wired.config_hash().unwrap(),
        spec.config_hash().unwrap(),
        "governor participates in the config hash identically on both paths"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: for arbitrary governor thresholds, the decision series
    /// reconciles with the stats totals, and the stats totals reconcile
    /// with the OS counters the governor's actions are charged to —
    /// every governor promotion is a khugepaged promotion, every
    /// governor demotion is an OS demotion.
    #[test]
    fn governor_counters_reconcile_with_os_totals(
        epoch_cycles in 100_000u64..400_000,
        promote_milli in 100u64..2_000,
        kernel_pick in 0usize..2,
    ) {
        let kernel = [Kernel::Bfs, Kernel::Pagerank][kernel_pick];
        let config = GovernorConfig {
            epoch_cycles,
            promote_cost: promote_milli as f64 / 1000.0,
            demote_cost: promote_milli as f64 / 4000.0,
            ..GovernorConfig::default()
        };
        let report = run_plan(
            kernel,
            PageSizePlan::with_policy(PagePolicy::BaseOnly).governed(config),
        );
        let gov = report.governor.as_ref().expect("governor section");
        prop_assert_eq!(gov.series.len() as u64, gov.epochs, "one sample per epoch");
        let promoted: u64 = gov.series.iter().map(|s| u64::from(s.promoted)).sum();
        let demoted: u64 = gov.series.iter().map(|s| u64::from(s.demoted)).sum();
        let denied: u64 = gov.series.iter().map(|s| u64::from(s.denied)).sum();
        prop_assert_eq!(promoted, gov.promotions, "series sums to the promotion total");
        prop_assert_eq!(demoted, gov.demotions, "series sums to the demotion total");
        prop_assert_eq!(denied, gov.denied_by_fragmentation, "series sums to the denial total");
        prop_assert!(
            gov.promotions <= report.os.promotions,
            "governor promotions ({}) must appear in khugepaged's total ({})",
            gov.promotions, report.os.promotions
        );
        prop_assert!(
            gov.demotions <= report.os.demotions,
            "governor demotions ({}) must appear in the OS demotion total ({})",
            gov.demotions, report.os.demotions
        );
    }
}
