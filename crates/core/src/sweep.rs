//! The paper's sensitivity ladders, expanded into grids by
//! [`SweepKind::experiments`](crate::SweepKind::experiments).

/// The paper's pressure ladder: −6 % (oversubscribed ≈ −0.5 GB) through
/// +35 % (≈ +3 GB) of WSS.
pub const PRESSURE_LADDER: [f64; 8] = [-0.06, 0.0, 0.06, 0.12, 0.18, 0.24, 0.29, 0.35];

/// The paper's fragmentation levels (Fig. 9).
pub const FRAGMENTATION_LEVELS: [f64; 4] = [0.0, 0.25, 0.5, 0.75];

/// The paper's selectivity steps (Fig. 11).
pub const SELECTIVITY_LEVELS: [f64; 6] = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::MemoryCondition;
    use crate::error::GraphmemError;
    use crate::experiment::Experiment;
    use crate::policy::PagePolicy;
    use crate::report::RunReport;
    use crate::spec::SweepKind;
    use crate::supervisor::{run_supervised, SupervisorConfig};
    use graphmem_graph::Dataset;
    use graphmem_workloads::Kernel;

    /// All reports of `experiments` run on `threads` workers, or the first
    /// failure.
    fn run_all(
        experiments: &[Experiment],
        threads: usize,
    ) -> Result<Vec<RunReport>, GraphmemError> {
        let config = SupervisorConfig {
            threads,
            ..SupervisorConfig::default()
        };
        run_supervised(experiments, &config)?.into_reports()
    }

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
        let rs = run_all(&SweepKind::Pressure.experiments(&proto), 2).unwrap();
        assert_eq!(rs.len(), PRESSURE_LADDER.len());
        assert!(rs.iter().all(|r| r.verified));
        // More surplus ⇒ at least as much huge coverage.
        let (zero, most) = (&rs[1], &rs[rs.len() - 1]);
        assert!(most.huge_memory_fraction() >= zero.huge_memory_fraction());
    }

    #[test]
    fn selectivity_sweep_monotone_in_advised_bytes() {
        let rs = run_all(&SweepKind::Selectivity.experiments(&proto()), 2).unwrap();
        assert!(rs.iter().all(|r| r.verified));
        let f: Vec<f64> = rs.iter().map(RunReport::property_huge_fraction).collect();
        assert!(f.windows(2).all(|w| w[0] <= w[1]), "{f:?}");
        assert_eq!(rs[0].property_huge_bytes, 0);
    }

    #[test]
    fn parallel_matches_serial() {
        let proto = proto().policy(PagePolicy::ThpSystemWide);
        let exps: Vec<Experiment> = [0.0, 0.5]
            .iter()
            .map(|&l| proto.clone().condition(MemoryCondition::fragmented(l)))
            .collect();
        let par = run_all(&exps, 2).unwrap();
        let ser: Vec<_> = exps.iter().map(|e| e.run()).collect();
        for (p, s) in par.iter().zip(&ser) {
            assert_eq!(p.to_json(), s.to_json(), "bit-identical reports");
        }
    }

    #[test]
    fn supervised_sweep_edge_cases() {
        assert!(run_all(&[], 4).unwrap().is_empty());
        assert!(matches!(
            run_all(&[], 0),
            Err(GraphmemError::InvalidConfig(_))
        ));
    }

    #[test]
    fn fragmentation_sweep_labels_condition() {
        let grid = SweepKind::Fragmentation.experiments(&proto().policy(PagePolicy::ThpSystemWide));
        let rs = run_all(&grid, 2).unwrap();
        let half = FRAGMENTATION_LEVELS.iter().position(|&l| l == 0.5).unwrap();
        assert!(rs[half].labels[4].contains("frag50%"));
    }
}
