//! The unified page-size plan: every page-size knob behind one typed
//! entry point.
//!
//! Before this module, the page-size surface was scattered: the
//! [`PagePolicy`] sat on [`RunSpec`](crate::RunSpec), the khugepaged
//! ablation knobs were individual [`Experiment`](crate::Experiment)
//! setters, the compaction budget a third path, and the page-size
//! governor would have added a fourth. A [`PageSizePlan`] collapses them
//! into one value with one validation path and an exact JSON round trip,
//! applied with [`Experiment::plan`](crate::Experiment::plan) (or the
//! [`ExperimentBuilder`](crate::ExperimentBuilder) equivalent) and
//! carried by [`RunSpec`](crate::RunSpec) across the wire.

use graphmem_os::GovernorConfig;
use graphmem_telemetry::counters::write_optional;
use graphmem_telemetry::json::{JsonObject, JsonValue};

use crate::error::GraphmemError;
use crate::policy::PagePolicy;
use crate::spec::{policy_from_token, policy_token, spec_field};

/// Every page-size management knob of one run, as plain data: the static
/// placement [`PagePolicy`], the khugepaged ablation overrides, the
/// fault-time compaction budget, and the closed-loop governor. `None`
/// always means "the simulated kernel's default".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageSizePlan {
    /// Static page-size policy (which ranges get `MADV_HUGEPAGE`, THP
    /// mode, hugetlbfs reservations).
    pub policy: PagePolicy,
    /// Override: enable/disable the khugepaged background daemon.
    pub khugepaged_enabled: Option<bool>,
    /// Override: khugepaged scan interval in simulated cycles.
    pub khugepaged_interval: Option<u64>,
    /// Override: fault-time direct-compaction budget in pageblocks
    /// (0 disables fault-time defrag entirely).
    pub defrag_scan_blocks: Option<usize>,
    /// Closed-loop page-size governor (`None` = off).
    pub governor: Option<GovernorConfig>,
}

impl Default for PageSizePlan {
    fn default() -> Self {
        PageSizePlan {
            policy: PagePolicy::BaseOnly,
            khugepaged_enabled: None,
            khugepaged_interval: None,
            defrag_scan_blocks: None,
            governor: None,
        }
    }
}

impl PageSizePlan {
    /// A plan that sets the static policy and leaves every kernel knob at
    /// its default.
    pub fn with_policy(policy: PagePolicy) -> Self {
        PageSizePlan {
            policy,
            ..PageSizePlan::default()
        }
    }

    /// Set the governor, builder-style.
    pub fn governed(mut self, config: GovernorConfig) -> Self {
        self.governor = Some(config);
        self
    }

    /// The single validation path for every kernel-independent page-size
    /// knob; [`Experiment`](crate::Experiment) validation delegates here
    /// and adds only the kernel-dependent checks.
    ///
    /// # Errors
    ///
    /// Returns [`GraphmemError::InvalidConfig`] naming the violated
    /// invariant.
    pub fn validate(&self) -> Result<(), GraphmemError> {
        let invalid = |msg: String| Err(GraphmemError::InvalidConfig(msg));
        match self.policy {
            PagePolicy::SelectiveProperty { fraction } if !(0.0..=1.0).contains(&fraction) => {
                return invalid(format!("selective fraction {fraction} outside 0..=1"));
            }
            PagePolicy::AutoSelective { coverage } if !(0.0..=1.0).contains(&coverage) => {
                return invalid(format!("auto coverage {coverage} outside 0..=1"));
            }
            _ => {}
        }
        if self.khugepaged_interval == Some(0) {
            return invalid("khugepaged interval must be positive".into());
        }
        if let Some(g) = &self.governor {
            g.validate().map_err(GraphmemError::InvalidConfig)?;
        }
        Ok(())
    }

    /// Emit this plan's fields into `o` using the spec-level key names
    /// (`policy`, `khugepaged`, `khugepaged_interval`, `defrag_blocks`,
    /// `governor`); overrides are omitted when unset, so a plan with only
    /// a policy serializes exactly as specs did before the plan existed.
    pub(crate) fn write_json_fields(&self, o: &mut JsonObject) {
        o.field_str("policy", &policy_token(&self.policy));
        write_optional(o, "khugepaged", &self.khugepaged_enabled);
        write_optional(o, "khugepaged_interval", &self.khugepaged_interval);
        let blocks = self.defrag_scan_blocks.map(|b| b as u64);
        write_optional(o, "defrag_blocks", &blocks);
        write_optional(o, "governor", &self.governor.map(|g| g.to_string()));
    }

    /// Read the plan fields out of a JSON object (absent keys keep their
    /// defaults) — the inverse of [`Self::write_json_fields`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unparseable field.
    pub(crate) fn read_json_fields(v: &JsonValue) -> Result<Self, String> {
        let mut plan = PageSizePlan::default();
        if let Some(s) = spec_field::<String>(v, "policy")? {
            plan.policy = policy_from_token(&s)?;
        }
        plan.khugepaged_enabled = spec_field(v, "khugepaged")?.flatten();
        plan.khugepaged_interval = spec_field(v, "khugepaged_interval")?.flatten();
        let blocks: Option<u64> = spec_field(v, "defrag_blocks")?.flatten();
        plan.defrag_scan_blocks = blocks.map(|b| b as usize);
        if let Some(s) = spec_field::<Option<String>>(v, "governor")?.flatten() {
            plan.governor = Some(s.parse::<GovernorConfig>()?);
        }
        Ok(plan)
    }

    /// Render as one canonical JSON object (same keys as the spec-level
    /// embedding).
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        self.write_json_fields(&mut o);
        o.finish()
    }

    /// Parse a plan previously rendered by [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unparseable field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = JsonValue::parse(text)?;
        if !matches!(v, JsonValue::Object(_)) {
            return Err("page-size plan must be a JSON object".into());
        }
        Self::read_json_fields(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_plan_is_policy_only_json() {
        let plan = PageSizePlan::default();
        assert_eq!(plan.to_json(), r#"{"policy":"4k"}"#);
        assert_eq!(PageSizePlan::from_json(r#"{}"#).unwrap(), plan);
    }

    #[test]
    fn validation_is_the_single_path() {
        assert!(PageSizePlan::default().validate().is_ok());
        let bad = PageSizePlan {
            khugepaged_interval: Some(0),
            ..PageSizePlan::default()
        };
        assert!(bad.validate().is_err());
        let bad = PageSizePlan::with_policy(PagePolicy::SelectiveProperty { fraction: 1.5 });
        assert!(bad.validate().is_err());
        let bad = PageSizePlan::default().governed(GovernorConfig {
            max_actions: 0,
            ..GovernorConfig::default()
        });
        assert!(bad.validate().is_err());
    }

    fn arb_plan(rng: &mut proptest::TestRng) -> PageSizePlan {
        let policy = match rng.below(5) {
            0 => PagePolicy::BaseOnly,
            1 => PagePolicy::ThpSystemWide,
            2 => PagePolicy::SelectiveProperty {
                fraction: rng.unit_f64(),
            },
            3 => PagePolicy::HugetlbProperty,
            _ => PagePolicy::property_only(),
        };
        let governor = if rng.below(2) == 1 {
            let promote = rng.unit_f64() * 8.0;
            Some(GovernorConfig {
                epoch_cycles: 1 + rng.below(1 << 40),
                promote_cost: promote,
                demote_cost: promote * rng.unit_f64(),
                max_actions: 1 + rng.below(1 << 16) as u32,
            })
        } else {
            None
        };
        PageSizePlan {
            policy,
            khugepaged_enabled: match rng.below(3) {
                0 => None,
                n => Some(n == 2),
            },
            khugepaged_interval: match rng.below(2) {
                0 => None,
                _ => Some(1 + rng.below(1 << 40)),
            },
            defrag_scan_blocks: match rng.below(2) {
                0 => None,
                _ => Some(rng.below(1 << 20) as usize),
            },
            governor,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Property: plan JSON (de)serialization is exact — parse(to_json(p))
        /// equals p (including governor threshold f64 bit patterns via the
        /// shortest-round-trip token form) and re-serializes byte-identically.
        #[test]
        fn plan_json_round_trip_is_exact(case in 0u32..u32::MAX) {
            let mut rng = proptest::TestRng::for_case("plan_json", case);
            let plan = arb_plan(&mut rng);
            let json = plan.to_json();
            let back = PageSizePlan::from_json(&json).expect("round trip parses");
            prop_assert_eq!(back, plan);
            prop_assert_eq!(back.to_json(), json);
        }
    }
}
