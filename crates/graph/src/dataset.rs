//! Scaled-down analogues of the paper's four evaluation inputs (Table 2).

use crate::generate::RmatConfig;
use crate::Csr;

/// The four inputs of the paper's evaluation, as scaled synthetic
/// analogues (see `DESIGN.md` §5 for the substitution rationale):
///
/// | Preset | Models | Structure |
/// |---|---|---|
/// | `Kron25` | Kronecker25 (34M v / 1.05B e) | power-law, IDs shuffled — no ID↔degree correlation, DBG helps most |
/// | `Twitter` | Twitter (53M v / 1.94B e) | heavier skew, hubs at low IDs (crawl order) |
/// | `Web` | Sd1 Arc (95M v / 1.96B e) | strong skew, hubs at low IDs |
/// | `Wiki` | Wikipedia (12M v / 378M e) | smaller, hubs at low IDs |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Synthetic Kronecker power-law network with shuffled IDs.
    Kron25,
    /// Twitter-like social network.
    Twitter,
    /// Sd1 Arc-like web graph.
    Web,
    /// Wikipedia-like network (smallest input).
    Wiki,
}

impl Dataset {
    /// All four presets, in the paper's order.
    pub const ALL: [Dataset; 4] = [
        Dataset::Kron25,
        Dataset::Twitter,
        Dataset::Web,
        Dataset::Wiki,
    ];

    /// Short name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Kron25 => "kron",
            Dataset::Twitter => "twit",
            Dataset::Web => "web",
            Dataset::Wiki => "wiki",
        }
    }

    /// Default scale (log2 vertices) at the standard experiment size.
    /// All presets keep the property array well above the scaled L3
    /// (640 KiB) so cache placement stays irrelevant, as on the paper's
    /// machine.
    pub fn default_scale(&self) -> u8 {
        match self {
            Dataset::Kron25 | Dataset::Twitter | Dataset::Web => 18,
            Dataset::Wiki => 17,
        }
    }

    /// Generator configuration at a given scale. Degrees and skew follow
    /// the relative shape of Table 2 (Twitter densest, Wiki smallest).
    pub fn rmat_config(&self, scale: u8) -> RmatConfig {
        match self {
            Dataset::Kron25 => RmatConfig {
                scale,
                avg_degree: 16,
                a: 0.57,
                b: 0.19,
                c: 0.19,
                shuffle_ids: true,
                weighted: false,
                seed: 0xC0FFEE,
            },
            Dataset::Twitter => RmatConfig {
                scale,
                avg_degree: 24,
                a: 0.60,
                b: 0.19,
                c: 0.16,
                shuffle_ids: false,
                weighted: false,
                seed: 0x7717E4,
            },
            Dataset::Web => RmatConfig {
                scale,
                avg_degree: 20,
                a: 0.63,
                b: 0.18,
                c: 0.14,
                shuffle_ids: false,
                weighted: false,
                seed: 0x5D1A4C,
            },
            Dataset::Wiki => RmatConfig {
                scale,
                avg_degree: 30,
                a: 0.58,
                b: 0.19,
                c: 0.18,
                shuffle_ids: false,
                weighted: false,
                seed: 0x01D1,
            },
        }
    }

    /// Generate the unweighted graph at the default scale.
    pub fn generate(&self) -> Csr {
        self.generate_with_scale(self.default_scale())
    }

    /// Generate at an explicit scale (tests and the claims' scale presets).
    pub fn generate_with_scale(&self, scale: u8) -> Csr {
        self.rmat_config(scale).generate()
    }

    /// Generate a weighted variant (for SSSP) at an explicit scale.
    pub fn generate_weighted_with_scale(&self, scale: u8) -> Csr {
        let mut cfg = self.rmat_config(scale);
        cfg.weighted = true;
        cfg.generate()
    }

    /// Generate a seed-perturbed instance (robustness studies: same
    /// structure class, different random draw). `seed_offset = 0` is the
    /// canonical instance.
    pub fn generate_with_seed(&self, scale: u8, weighted: bool, seed_offset: u64) -> Csr {
        let mut cfg = self.rmat_config(scale);
        cfg.weighted = weighted;
        cfg.seed ^= seed_offset.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        cfg.generate()
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_generate_valid_graphs() {
        for ds in Dataset::ALL {
            let g = ds.generate_with_scale(11);
            g.validate();
            assert!(g.num_edges() > 0, "{ds} empty");
        }
    }

    #[test]
    fn kron_is_shuffled_twitter_is_not() {
        assert!(Dataset::Kron25.rmat_config(12).shuffle_ids);
        assert!(!Dataset::Twitter.rmat_config(12).shuffle_ids);
    }

    #[test]
    fn relative_densities_follow_table2() {
        let d = |ds: Dataset| ds.rmat_config(12).avg_degree;
        assert!(d(Dataset::Twitter) > d(Dataset::Web));
        assert!(d(Dataset::Web) > d(Dataset::Kron25));
        assert!(Dataset::Wiki.default_scale() < Dataset::Kron25.default_scale());
    }

    #[test]
    fn names_match_paper_labels() {
        let names: Vec<_> = Dataset::ALL.iter().map(|d| d.name()).collect();
        assert_eq!(names, vec!["kron", "twit", "web", "wiki"]);
    }
}
