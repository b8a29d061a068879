//! Golden report digests: the simulated output of a tiny grid, pinned.
//!
//! `RunReport` bytes for a given spec are the fixed point of the model —
//! they change only when a change sets out to change the model. The
//! differential harness cannot see an exact-by-construction rewrite of
//! the shared TLB/cache structures go wrong, because both of its engines
//! run on the same structures. This test can: it hashes each report's
//! JSON and compares against digests recorded in
//! `golden/report_digests.txt`.
//!
//! The grid is all four kernels on the wiki preset under two plans:
//! base pages only, and system-wide THP on a 0.6-fragmented machine with
//! the page-size governor running. If a change is meant to alter the
//! model, replace the fixture with the `actual` lines the failure prints.

use graphmem_core::{
    Experiment, GovernorConfig, MemoryCondition, PagePolicy, PageSizePlan, RunReport,
};
use graphmem_graph::Dataset;
use graphmem_workloads::Kernel;

const FIXTURE: &str = include_str!("golden/report_digests.txt");

const KERNELS: [Kernel; 4] = [Kernel::Bfs, Kernel::Pagerank, Kernel::Sssp, Kernel::Cc];

/// FNV-1a 64-bit, as fixed-width hex (the same hash `config_hash` uses).
fn fnv1a(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    format!("{h:016x}")
}

fn run(kernel: Kernel, plan: PageSizePlan, condition: MemoryCondition) -> RunReport {
    Experiment::builder(Dataset::Wiki, kernel)
        .scale(Dataset::Wiki.default_scale() - 4)
        .plan(plan)
        .condition(condition)
        .build()
        .expect("valid config")
        .run()
}

fn governed_thp() -> PageSizePlan {
    PageSizePlan::with_policy(PagePolicy::ThpSystemWide).governed(GovernorConfig {
        epoch_cycles: 200_000,
        promote_cost: 0.5,
        demote_cost: 0.1,
        ..GovernorConfig::default()
    })
}

#[test]
fn report_digests_match_fixture() {
    let mut actual = String::new();
    for kernel in KERNELS {
        let cells = [
            (
                "base",
                run(
                    kernel,
                    PageSizePlan::with_policy(PagePolicy::BaseOnly),
                    MemoryCondition::unbounded(),
                ),
            ),
            (
                "thp-frag0.6-governed",
                run(kernel, governed_thp(), MemoryCondition::fragmented(0.6)),
            ),
        ];
        assert!(
            cells[1].1.governor.as_ref().is_some_and(|g| g.epochs > 0),
            "{kernel}: the governed cell must run governor epochs to be probative"
        );
        for (plan, report) in cells {
            let digest = fnv1a(report.to_json().as_bytes());
            actual.push_str(&format!("{kernel} {plan} {digest}\n"));
        }
    }
    let expected: String = FIXTURE
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        actual, expected,
        "report digests moved: the simulated model changed"
    );
}
