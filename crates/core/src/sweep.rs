//! Parameter sweeps over experiments (the paper's sensitivity studies).

use crate::condition::{MemoryCondition, Surplus};
use crate::error::GraphmemError;
use crate::experiment::Experiment;
use crate::policy::PagePolicy;
use crate::report::RunReport;
use crate::supervisor::{run_supervised, SupervisorConfig};

/// Run many independent experiments on up to `threads` OS threads,
/// returning reports in input order. Every experiment is deterministic and
/// self-contained, so parallel execution yields bit-identical results to a
/// serial loop — only the wall-clock time changes.
///
/// This is the all-or-nothing convenience wrapper over
/// [`run_supervised`]: an empty list returns an empty vector without
/// spawning anything, and the first
/// failing experiment (grid order) surfaces as the error. Use the
/// supervisor directly for per-config outcomes, retries, or
/// checkpoint/resume.
///
/// # Errors
///
/// Returns [`GraphmemError::InvalidConfig`] if `threads` is zero, or the
/// first experiment failure (a worker panic becomes
/// [`GraphmemError::Panic`] instead of propagating).
pub fn run_parallel(
    experiments: Vec<Experiment>,
    threads: usize,
) -> Result<Vec<RunReport>, GraphmemError> {
    let config = SupervisorConfig {
        threads,
        ..SupervisorConfig::default()
    };
    run_supervised(&experiments, &config)?.into_reports()
}

/// The experiments a [`pressure`] sweep runs, one per fraction, in order.
pub fn pressure_experiments(proto: &Experiment, fractions: &[f64]) -> Vec<Experiment> {
    fractions
        .iter()
        .map(|&f| {
            proto
                .clone()
                .condition(MemoryCondition::pressured(Surplus::FractionOfWss(f)))
        })
        .collect()
}

/// Run `proto` at each memory-pressure level (§4.3.1's seven 0–3 GB steps
/// plus the oversubscribed point, expressed as fractions of WSS). Returns
/// `(surplus_fraction, report)` pairs.
pub fn pressure(proto: &Experiment, fractions: &[f64]) -> Vec<(f64, RunReport)> {
    let rs: Vec<RunReport> = pressure_experiments(proto, fractions)
        .iter()
        .map(Experiment::run)
        .collect();
    fractions.iter().copied().zip(rs).collect()
}

/// The paper's pressure ladder: −6 % (oversubscribed ≈ −0.5 GB) through
/// +35 % (≈ +3 GB) of WSS.
pub const PRESSURE_LADDER: [f64; 8] = [-0.06, 0.0, 0.06, 0.12, 0.18, 0.24, 0.29, 0.35];

/// Run `proto` at each non-movable fragmentation level with the Fig. 8/9
/// +3 GB-equivalent surplus. Returns `(level, report)` pairs.
pub fn fragmentation(proto: &Experiment, levels: &[f64]) -> Vec<(f64, RunReport)> {
    let rs: Vec<RunReport> = fragmentation_experiments(proto, levels)
        .iter()
        .map(Experiment::run)
        .collect();
    levels.iter().copied().zip(rs).collect()
}

/// The experiments a [`fragmentation`] sweep runs, one per level, in order.
pub fn fragmentation_experiments(proto: &Experiment, levels: &[f64]) -> Vec<Experiment> {
    levels
        .iter()
        .map(|&l| proto.clone().condition(MemoryCondition::fragmented(l)))
        .collect()
}

/// The paper's fragmentation levels (Fig. 9).
pub const FRAGMENTATION_LEVELS: [f64; 4] = [0.0, 0.25, 0.5, 0.75];

/// Run `proto` with selective THP at each property-array fraction
/// (Fig. 11's 0–100 % in steps of 20). Returns `(fraction, report)` pairs.
pub fn selectivity(proto: &Experiment, fractions: &[f64]) -> Vec<(f64, RunReport)> {
    let rs: Vec<RunReport> = selectivity_experiments(proto, fractions)
        .iter()
        .map(Experiment::run)
        .collect();
    fractions.iter().copied().zip(rs).collect()
}

/// The experiments a [`selectivity`] sweep runs, one per fraction, in order.
pub fn selectivity_experiments(proto: &Experiment, fractions: &[f64]) -> Vec<Experiment> {
    fractions
        .iter()
        .map(|&s| {
            proto
                .clone()
                .policy(PagePolicy::SelectiveProperty { fraction: s })
        })
        .collect()
}

/// The paper's selectivity steps (Fig. 11).
pub const SELECTIVITY_LEVELS: [f64; 6] = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];

#[cfg(test)]
mod tests {
    use super::*;
    use graphmem_graph::Dataset;
    use graphmem_workloads::Kernel;

    fn proto() -> Experiment {
        Experiment::builder(Dataset::Wiki, Kernel::Bfs)
            .scale(15)
            .huge_order(4)
            .build()
            .expect("valid test config")
    }

    #[test]
    fn pressure_sweep_is_ordered_and_verified() {
        let proto = proto().policy(PagePolicy::ThpSystemWide);
        let rs = pressure(&proto, &[0.0, 0.35]);
        assert_eq!(rs.len(), 2);
        assert!(rs.iter().all(|(_, r)| r.verified));
        // More surplus ⇒ at least as much huge coverage.
        assert!(rs[1].1.huge_memory_fraction() >= rs[0].1.huge_memory_fraction());
    }

    #[test]
    fn selectivity_sweep_monotone_in_advised_bytes() {
        let rs = selectivity(&proto(), &[0.0, 0.5, 1.0]);
        assert!(rs.iter().all(|(_, r)| r.verified));
        let f: Vec<f64> = rs.iter().map(|(_, r)| r.property_huge_fraction()).collect();
        assert!(f[0] <= f[1] && f[1] <= f[2], "{f:?}");
        assert_eq!(rs[0].1.property_huge_bytes, 0);
    }

    #[test]
    fn parallel_matches_serial() {
        let proto = proto().policy(PagePolicy::ThpSystemWide);
        let exps: Vec<Experiment> = [0.0, 0.5]
            .iter()
            .map(|&l| proto.clone().condition(MemoryCondition::fragmented(l)))
            .collect();
        let par = run_parallel(exps.clone(), 2).unwrap();
        let ser: Vec<_> = exps.iter().map(|e| e.run()).collect();
        for (p, s) in par.iter().zip(&ser) {
            assert_eq!(p.to_json(), s.to_json(), "bit-identical reports");
        }
    }

    #[test]
    fn run_parallel_edge_cases() {
        assert!(run_parallel(Vec::new(), 4).unwrap().is_empty());
        assert!(matches!(
            run_parallel(Vec::new(), 0),
            Err(crate::error::GraphmemError::InvalidConfig(_))
        ));
    }

    #[test]
    fn fragmentation_sweep_labels_condition() {
        let rs = fragmentation(&proto().policy(PagePolicy::ThpSystemWide), &[0.5]);
        assert!(rs[0].1.labels[4].contains("frag50%"));
    }
}
