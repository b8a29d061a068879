//! The typed experiment-description surface shared by every frontend.
//!
//! A [`RunSpec`] is everything needed to describe one measured
//! configuration — dataset, kernel, page policy, preprocessing, memory
//! condition, knobs — independent of *how* the request arrived (CLI
//! flags, the experiment service's `POST /runs` JSON body, or library
//! code). Both frontends lower a spec through the same path:
//!
//! ```text
//! flags ──parse──▶ RunSpec ──to_experiment()──▶ Experiment ──config_hash()
//! JSON  ──from_json──▶     (one lowering site)       (one hash site)
//! ```
//!
//! so a config submitted over the wire and the same config typed at a
//! shell produce the *identical* [`Experiment`] and therefore the
//! identical FNV-1a `config_hash` — the content address used by run
//! manifests and the service's result store.
//!
//! Serialization is exact: [`RunSpec::to_json`] emits a canonical object
//! through [`graphmem_telemetry::json`] (floats in shortest-round-trip
//! form), and [`RunSpec::from_json`] rebuilds a spec that re-serializes
//! byte-identically — proven by a proptest round trip below.

use graphmem_graph::Dataset;
use graphmem_os::FilePlacement;
use graphmem_telemetry::counters::{read_optional, write_optional, Field};
use graphmem_telemetry::json::{JsonObject, JsonValue};
use graphmem_workloads::{AllocOrder, Kernel};

use crate::condition::{MemoryCondition, Surplus};
use crate::error::GraphmemError;
use crate::experiment::Experiment;
use crate::plan::PageSizePlan;
use crate::policy::{PagePolicy, Preprocessing};
use crate::sweep;

/// Everything needed to build an [`Experiment`], as plain data.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Input graph preset.
    pub dataset: Dataset,
    /// Application kernel.
    pub kernel: Kernel,
    /// Optional scale override (log2 vertices).
    pub scale: Option<u8>,
    /// Unified page-size plan: static policy, khugepaged/defrag
    /// overrides, and the closed-loop governor.
    pub plan: PageSizePlan,
    /// Vertex reordering.
    pub preprocess: Preprocessing,
    /// First-touch order.
    pub order: AllocOrder,
    /// Memory condition (pressure / fragmentation / noise).
    pub condition: MemoryCondition,
    /// File-loading placement.
    pub file: FilePlacement,
    /// Verify against the native twin.
    pub verify: bool,
    /// Epoch-sample metrics every N simulated cycles.
    pub sample_interval: Option<u64>,
    /// Generator seed perturbation (0 = the canonical instance).
    pub seed_offset: u64,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            dataset: Dataset::Kron25,
            kernel: Kernel::Bfs,
            scale: None,
            plan: PageSizePlan::default(),
            preprocess: Preprocessing::None,
            order: AllocOrder::Natural,
            condition: MemoryCondition::unbounded(),
            file: FilePlacement::TmpfsRemote,
            verify: true,
            sample_interval: None,
            seed_offset: 0,
        }
    }
}

impl RunSpec {
    /// Lower the spec into a validated [`Experiment`] — the single
    /// flag→config assembly site shared by the CLI and the experiment
    /// service. The experiment holds this spec as-is, with its run-local
    /// knobs (huge-page order, STLB size, telemetry, attribution) at
    /// their defaults.
    ///
    /// # Errors
    ///
    /// Returns [`GraphmemError::InvalidConfig`] for out-of-range knobs or
    /// impossible kernel/policy combinations (see [`Experiment::build`]).
    pub fn to_experiment(&self) -> Result<Experiment, GraphmemError> {
        Experiment::from_spec(self.clone()).build()
    }

    /// The config's content address: lowers through
    /// [`Self::to_experiment`] and delegates to
    /// [`Experiment::config_hash`], so the hash is computed from the spec
    /// in exactly one place for every frontend.
    ///
    /// # Errors
    ///
    /// Returns the lowering error for an invalid spec (an invalid config
    /// has no identity).
    pub fn config_hash(&self) -> Result<String, GraphmemError> {
        Ok(self.to_experiment()?.config_hash())
    }

    /// The experiments this spec describes: a single run, or the sweep
    /// grid when `sweep` names one of the paper's parameter ladders.
    ///
    /// # Errors
    ///
    /// Returns the lowering error for an invalid spec.
    pub fn experiments(&self, sweep: Option<SweepKind>) -> Result<Vec<Experiment>, GraphmemError> {
        let proto = self.to_experiment()?;
        Ok(match sweep {
            None => vec![proto],
            Some(kind) => kind.experiments(&proto),
        })
    }

    /// Render as one canonical JSON object. `scale` and
    /// `sample_interval` are omitted when unset; every other field is
    /// explicit, so two specs are equal iff their JSON is byte-equal.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_str("dataset", self.dataset.name());
        o.field_str("kernel", self.kernel.name());
        write_optional(&mut o, "scale", &self.scale.map(u64::from));
        self.plan.write_json_fields(&mut o);
        o.field_str("preprocess", self.preprocess.label());
        o.field_str("order", order_token(self.order));
        o.field_str("surplus", &surplus_token(self.condition.surplus));
        o.field_f64("frag", self.condition.fragmentation);
        o.field_f64("noise", self.condition.noise_occupancy);
        o.field_str("file", file_token(self.file));
        o.field_bool("verify", self.verify);
        write_optional(&mut o, "sample_interval", &self.sample_interval);
        o.field_u64("seed_offset", self.seed_offset);
        o.finish()
    }

    /// Parse a spec previously rendered by [`Self::to_json`] (or written
    /// by hand: absent fields take their [`RunSpec::default`] values).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unparseable field.
    pub fn from_json(text: &str) -> Result<RunSpec, String> {
        Self::from_json_value(&JsonValue::parse(text)?)
    }

    /// Rebuild a spec from a parsed JSON object (see [`Self::from_json`]).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unparseable field.
    pub fn from_json_value(v: &JsonValue) -> Result<RunSpec, String> {
        if !matches!(v, JsonValue::Object(_)) {
            return Err("run spec must be a JSON object".into());
        }
        let mut spec = RunSpec::default();
        if let Some(s) = spec_field::<String>(v, "dataset")? {
            spec.dataset = dataset_from_token(&s)?;
        }
        if let Some(s) = spec_field::<String>(v, "kernel")? {
            spec.kernel = kernel_from_token(&s)?;
        }
        if let Some(n) = spec_field::<Option<u64>>(v, "scale")?.flatten() {
            let n = u8::try_from(n).map_err(|_| "spec field 'scale' must be a small integer")?;
            spec.scale = Some(n);
        }
        spec.plan = PageSizePlan::read_json_fields(v)?;
        if let Some(s) = spec_field::<String>(v, "preprocess")? {
            spec.preprocess = preprocess_from_token(&s)?;
        }
        if let Some(s) = spec_field::<String>(v, "order")? {
            spec.order = order_from_token(&s)?;
        }
        if let Some(s) = spec_field::<String>(v, "surplus")? {
            spec.condition.surplus = surplus_from_token(&s)?;
        }
        if let Some(f) = spec_field(v, "frag")? {
            spec.condition.fragmentation = f;
        }
        if let Some(f) = spec_field(v, "noise")? {
            spec.condition.noise_occupancy = f;
        }
        if let Some(s) = spec_field::<String>(v, "file")? {
            spec.file = file_from_token(&s)?;
        }
        if let Some(verify) = spec_field(v, "verify")? {
            spec.verify = verify;
        }
        spec.sample_interval = spec_field(v, "sample_interval")?.flatten();
        if let Some(n) = spec_field(v, "seed_offset")? {
            spec.seed_offset = n;
        }
        Ok(spec)
    }
}

/// Read the spec key `key`: `None` when absent (the field keeps its
/// default), an error naming the key when its value has the wrong type.
/// Read an `Option<T>` for keys that may also be `null`.
pub(crate) fn spec_field<T: Field>(v: &JsonValue, key: &str) -> Result<Option<T>, String> {
    read_optional(v, key).map_err(|e| format!("spec: {e}"))
}

/// Which parameter ladder a sweep varies (the paper's sensitivity
/// studies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepKind {
    /// Free-memory surplus ladder (§4.3.1).
    Pressure,
    /// Fragmentation levels (Fig. 9).
    Fragmentation,
    /// Selective-THP fractions (Fig. 11).
    Selectivity,
}

impl SweepKind {
    /// Parse a sweep name as used by the CLI and the wire API.
    ///
    /// # Errors
    ///
    /// Returns a message listing the accepted names.
    pub fn from_token(s: &str) -> Result<SweepKind, String> {
        match s {
            "pressure" => Ok(SweepKind::Pressure),
            "frag" | "fragmentation" => Ok(SweepKind::Fragmentation),
            "selectivity" => Ok(SweepKind::Selectivity),
            other => Err(format!(
                "sweep must be one of pressure|frag|selectivity, got '{other}'"
            )),
        }
    }

    /// Canonical wire/CLI name.
    pub fn token(&self) -> &'static str {
        match self {
            SweepKind::Pressure => "pressure",
            SweepKind::Fragmentation => "frag",
            SweepKind::Selectivity => "selectivity",
        }
    }

    /// The varied parameter's display name.
    pub fn param_name(&self) -> &'static str {
        match self {
            SweepKind::Pressure => "surplus",
            SweepKind::Fragmentation => "frag",
            SweepKind::Selectivity => "s",
        }
    }

    /// The parameter values this sweep visits, in grid order.
    pub fn params(&self) -> &'static [f64] {
        match self {
            SweepKind::Pressure => &sweep::PRESSURE_LADDER,
            SweepKind::Fragmentation => &sweep::FRAGMENTATION_LEVELS,
            SweepKind::Selectivity => &sweep::SELECTIVITY_LEVELS,
        }
    }

    /// The grid of experiments this sweep runs over `proto`, in
    /// [`Self::params`] order.
    pub fn experiments(&self, proto: &Experiment) -> Vec<Experiment> {
        let at = |v: f64| match self {
            SweepKind::Pressure => proto
                .clone()
                .condition(MemoryCondition::pressured(Surplus::FractionOfWss(v))),
            SweepKind::Fragmentation => proto.clone().condition(MemoryCondition::fragmented(v)),
            SweepKind::Selectivity => proto
                .clone()
                .policy(PagePolicy::SelectiveProperty { fraction: v }),
        };
        self.params().iter().map(|&v| at(v)).collect()
    }
}

impl std::fmt::Display for SweepKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

// ---------------------------------------------------------------------
// Token grammar: the compact spellings shared by CLI flag values and the
// JSON wire format. `*_from_token` accepts aliases; the emitting
// direction is canonical so JSON round-trips byte-identically.
// ---------------------------------------------------------------------

/// Parse a dataset name (`kron|twit|web|wiki`, with aliases).
///
/// # Errors
///
/// Returns a message naming the unknown token.
pub fn dataset_from_token(s: &str) -> Result<Dataset, String> {
    match s {
        "kron" => Ok(Dataset::Kron25),
        "twit" | "twitter" => Ok(Dataset::Twitter),
        "web" => Ok(Dataset::Web),
        "wiki" => Ok(Dataset::Wiki),
        other => Err(format!("unknown dataset '{other}'")),
    }
}

/// Parse a kernel name (`bfs|pr|sssp|cc`, with aliases).
///
/// # Errors
///
/// Returns a message naming the unknown token.
pub fn kernel_from_token(s: &str) -> Result<Kernel, String> {
    match s {
        "bfs" => Ok(Kernel::Bfs),
        "pr" | "pagerank" => Ok(Kernel::Pagerank),
        "sssp" => Ok(Kernel::Sssp),
        "cc" => Ok(Kernel::Cc),
        other => Err(format!("unknown kernel '{other}'")),
    }
}

/// Parse a preprocessing name (`none|dbg|sort|random`).
///
/// # Errors
///
/// Returns a message naming the unknown token.
pub fn preprocess_from_token(s: &str) -> Result<Preprocessing, String> {
    match s {
        "none" | "orig" => Ok(Preprocessing::None),
        "dbg" => Ok(Preprocessing::Dbg),
        "sort" => Ok(Preprocessing::DegreeSort),
        "random" | "rand" => Ok(Preprocessing::Random),
        other => Err(format!("unknown preprocessing '{other}'")),
    }
}

/// Parse an allocation order (`natural|property-first`).
///
/// # Errors
///
/// Returns a message naming the unknown token.
pub fn order_from_token(s: &str) -> Result<AllocOrder, String> {
    match s {
        "natural" => Ok(AllocOrder::Natural),
        "property-first" | "optimized" => Ok(AllocOrder::PropertyFirst),
        other => Err(format!("unknown order '{other}'")),
    }
}

/// Canonical token for an allocation order.
pub fn order_token(order: AllocOrder) -> &'static str {
    match order {
        AllocOrder::Natural => "natural",
        AllocOrder::PropertyFirst => "property-first",
    }
}

/// Parse a file placement (`tmpfs|cache|direct`).
///
/// # Errors
///
/// Returns a message naming the unknown token.
pub fn file_from_token(s: &str) -> Result<FilePlacement, String> {
    match s {
        "tmpfs" => Ok(FilePlacement::TmpfsRemote),
        "cache" => Ok(FilePlacement::LocalPageCache),
        "direct" => Ok(FilePlacement::DirectIo),
        other => Err(format!("unknown file placement '{other}'")),
    }
}

/// Canonical token for a file placement.
pub fn file_token(file: FilePlacement) -> &'static str {
    match file {
        FilePlacement::TmpfsRemote => "tmpfs",
        FilePlacement::LocalPageCache => "cache",
        FilePlacement::DirectIo => "direct",
    }
}

/// Parse a page-size policy token:
/// `4k|thp|property|hugetlb|selective:F|auto:C|per-array:vertex+edge+values+property`.
///
/// # Errors
///
/// Returns a message naming the unknown token or out-of-range value.
pub fn policy_from_token(s: &str) -> Result<PagePolicy, String> {
    if let Some(rest) = s.strip_prefix("selective:") {
        let fraction: f64 = rest
            .parse()
            .map_err(|_| "selective:<fraction> needs a number".to_string())?;
        if !(0.0..=1.0).contains(&fraction) {
            return Err("selective fraction must be within 0..=1".into());
        }
        return Ok(PagePolicy::SelectiveProperty { fraction });
    }
    if let Some(rest) = s.strip_prefix("auto:") {
        let coverage: f64 = rest
            .parse()
            .map_err(|_| "auto:<coverage> needs a number".to_string())?;
        if !(0.0..=1.0).contains(&coverage) {
            return Err("auto coverage must be within 0..=1".into());
        }
        return Ok(PagePolicy::AutoSelective { coverage });
    }
    if let Some(rest) = s.strip_prefix("per-array:") {
        let mut vertex = false;
        let mut edge = false;
        let mut values = false;
        let mut property = false;
        for part in rest.split('+').filter(|p| !p.is_empty()) {
            match part {
                "vertex" => vertex = true,
                "edge" => edge = true,
                "values" => values = true,
                "property" => property = true,
                other => return Err(format!("unknown per-array member '{other}'")),
            }
        }
        return Ok(PagePolicy::PerArray {
            vertex,
            edge,
            values,
            property,
        });
    }
    match s {
        "4k" | "4kb" | "base" => Ok(PagePolicy::BaseOnly),
        "thp" => Ok(PagePolicy::ThpSystemWide),
        "property" => Ok(PagePolicy::property_only()),
        "hugetlb" => Ok(PagePolicy::HugetlbProperty),
        other => Err(format!("unknown policy '{other}'")),
    }
}

/// Canonical token for a policy (floats in shortest-round-trip form, so
/// `policy_from_token(&policy_token(p)) == p` exactly).
pub fn policy_token(policy: &PagePolicy) -> String {
    match policy {
        PagePolicy::BaseOnly => "4k".into(),
        PagePolicy::ThpSystemWide => "thp".into(),
        PagePolicy::PerArray {
            vertex,
            edge,
            values,
            property,
        } => {
            let mut parts = Vec::new();
            if *vertex {
                parts.push("vertex");
            }
            if *edge {
                parts.push("edge");
            }
            if *values {
                parts.push("values");
            }
            if *property {
                parts.push("property");
            }
            format!("per-array:{}", parts.join("+"))
        }
        PagePolicy::SelectiveProperty { fraction } => format!("selective:{fraction}"),
        PagePolicy::AutoSelective { coverage } => format!("auto:{coverage}"),
        PagePolicy::HugetlbProperty => "hugetlb".into(),
    }
}

/// Parse a surplus token (`unbounded`, `bytes:N`, `frac:F`, or a bare
/// fraction as the CLI's `--surplus` accepts).
///
/// # Errors
///
/// Returns a message naming the unknown token.
pub fn surplus_from_token(s: &str) -> Result<Surplus, String> {
    if s == "unbounded" {
        return Ok(Surplus::Unbounded);
    }
    if let Some(rest) = s.strip_prefix("bytes:") {
        return rest
            .parse()
            .map(Surplus::Bytes)
            .map_err(|_| format!("bad surplus byte count '{rest}'"));
    }
    let rest = s.strip_prefix("frac:").unwrap_or(s);
    rest.parse()
        .map(Surplus::FractionOfWss)
        .map_err(|_| format!("surplus must be 'unbounded', 'bytes:N', or a fraction, got '{s}'"))
}

/// Canonical token for a surplus.
pub fn surplus_token(surplus: Surplus) -> String {
    match surplus {
        Surplus::Unbounded => "unbounded".into(),
        Surplus::Bytes(b) => format!("bytes:{b}"),
        Surplus::FractionOfWss(f) => format!("frac:{f}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_spec_round_trips_and_lowers() {
        let spec = RunSpec::default();
        let json = spec.to_json();
        let back = RunSpec::from_json(&json).expect("default spec parses");
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), json, "canonical JSON is stable");
        let hash = spec.config_hash().expect("default spec lowers");
        assert_eq!(hash.len(), 16);
    }

    #[test]
    fn empty_object_gives_defaults() {
        assert_eq!(RunSpec::from_json("{}").unwrap(), RunSpec::default());
        assert!(RunSpec::from_json("[1,2]").is_err());
        assert!(RunSpec::from_json("{\"dataset\":\"mars\"}").is_err());
        assert!(RunSpec::from_json("{\"scale\":\"big\"}").is_err());
        assert!(RunSpec::from_json("{\"governor\":\"epoch=nope\"}").is_err());
    }

    #[test]
    fn spec_hash_matches_experiment_hash() {
        let spec = RunSpec {
            dataset: Dataset::Wiki,
            kernel: Kernel::Sssp,
            scale: Some(12),
            plan: PageSizePlan::with_policy(PagePolicy::SelectiveProperty { fraction: 0.25 })
                .governed(graphmem_os::GovernorConfig::default()),
            preprocess: Preprocessing::Dbg,
            ..RunSpec::default()
        };
        let exp = spec.to_experiment().unwrap();
        assert_eq!(spec.config_hash().unwrap(), exp.config_hash());
        // And the hash survives a JSON round trip: the wire spec is the
        // same identity as the local one.
        let wired = RunSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(wired.config_hash().unwrap(), exp.config_hash());
    }

    #[test]
    fn policy_tokens_cover_every_variant() {
        let policies = [
            PagePolicy::BaseOnly,
            PagePolicy::ThpSystemWide,
            PagePolicy::property_only(),
            PagePolicy::PerArray {
                vertex: true,
                edge: true,
                values: false,
                property: false,
            },
            PagePolicy::SelectiveProperty { fraction: 0.3 },
            PagePolicy::AutoSelective { coverage: 0.85 },
            PagePolicy::HugetlbProperty,
        ];
        for p in policies {
            let token = policy_token(&p);
            assert_eq!(policy_from_token(&token).unwrap(), p, "token {token}");
        }
        assert!(policy_from_token("selective:2").is_err());
        assert!(policy_from_token("per-array:edges").is_err());
        assert!(policy_from_token("bogus").is_err());
    }

    #[test]
    fn sweep_kinds_expand_to_their_grids() {
        let spec = RunSpec {
            dataset: Dataset::Wiki,
            scale: Some(11),
            ..RunSpec::default()
        };
        assert_eq!(spec.experiments(None).unwrap().len(), 1);
        for kind in [
            SweepKind::Pressure,
            SweepKind::Fragmentation,
            SweepKind::Selectivity,
        ] {
            let grid = spec.experiments(Some(kind)).unwrap();
            assert_eq!(grid.len(), kind.params().len());
            assert_eq!(SweepKind::from_token(kind.token()).unwrap(), kind);
        }
        assert!(SweepKind::from_token("sideways").is_err());
    }

    fn arb_spec(rng: &mut proptest::TestRng) -> RunSpec {
        let datasets = Dataset::ALL;
        let kernels = Kernel::EXTENDED;
        let policy = match rng.below(7) {
            0 => PagePolicy::BaseOnly,
            1 => PagePolicy::ThpSystemWide,
            2 => PagePolicy::PerArray {
                vertex: rng.below(2) == 1,
                edge: rng.below(2) == 1,
                values: rng.below(2) == 1,
                property: rng.below(2) == 1,
            },
            3 => PagePolicy::SelectiveProperty {
                fraction: rng.unit_f64(),
            },
            4 => PagePolicy::AutoSelective {
                coverage: rng.unit_f64(),
            },
            5 => PagePolicy::HugetlbProperty,
            _ => PagePolicy::property_only(),
        };
        let surplus = match rng.below(3) {
            0 => Surplus::Unbounded,
            1 => Surplus::Bytes(rng.next_u64() as i64 % (1 << 32)),
            _ => Surplus::FractionOfWss(rng.unit_f64()),
        };
        let governor = if rng.below(3) == 1 {
            let promote = rng.unit_f64() * 8.0;
            Some(graphmem_os::GovernorConfig {
                epoch_cycles: 1 + rng.below(1 << 40),
                promote_cost: promote,
                demote_cost: promote * rng.unit_f64(),
                max_actions: 1 + rng.below(1 << 16) as u32,
            })
        } else {
            None
        };
        let plan = PageSizePlan {
            policy,
            khugepaged_enabled: match rng.below(3) {
                0 => None,
                n => Some(n == 2),
            },
            khugepaged_interval: match rng.below(3) {
                0 => Some(1 + rng.below(1 << 40)),
                _ => None,
            },
            defrag_scan_blocks: match rng.below(3) {
                0 => Some(rng.below(1 << 20) as usize),
                _ => None,
            },
            governor,
        };
        RunSpec {
            dataset: datasets[rng.below(datasets.len() as u64) as usize],
            kernel: kernels[rng.below(kernels.len() as u64) as usize],
            scale: match rng.below(3) {
                0 => None,
                _ => Some(8 + rng.below(16) as u8),
            },
            plan,
            preprocess: [
                Preprocessing::None,
                Preprocessing::Dbg,
                Preprocessing::DegreeSort,
                Preprocessing::Random,
            ][rng.below(4) as usize],
            order: [AllocOrder::Natural, AllocOrder::PropertyFirst][rng.below(2) as usize],
            condition: MemoryCondition {
                surplus,
                fragmentation: rng.unit_f64(),
                noise_occupancy: rng.unit_f64(),
            },
            file: [
                FilePlacement::TmpfsRemote,
                FilePlacement::LocalPageCache,
                FilePlacement::DirectIo,
            ][rng.below(3) as usize],
            verify: rng.below(2) == 1,
            sample_interval: match rng.below(3) {
                0 => None,
                _ => Some(1 + rng.below(1 << 40)),
            },
            seed_offset: rng.below(1 << 48),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Property: JSON (de)serialization is exact — parse(to_json(s))
        /// equals s (including f64 bit patterns via shortest-round-trip
        /// formatting) and re-serializes byte-identically.
        #[test]
        fn json_round_trip_is_exact(case in 0u32..u32::MAX) {
            let mut rng = proptest::TestRng::for_case("runspec_json", case);
            let spec = arb_spec(&mut rng);
            let json = spec.to_json();
            let back = RunSpec::from_json(&json).expect("round trip parses");
            prop_assert_eq!(&back, &spec);
            prop_assert_eq!(back.to_json(), json);
        }

        /// Property: lowering a spec equals the explicit setter chain —
        /// the same Ok/Err outcome and, on Ok, the same `config_key`. This
        /// pins which spec field lands in which experiment slot.
        #[test]
        fn to_experiment_matches_the_setter_chain(case in 0u32..u32::MAX) {
            let mut rng = proptest::TestRng::for_case("runspec_lowering", case);
            let spec = arb_spec(&mut rng);
            let mut chain = Experiment::builder(spec.dataset, spec.kernel)
                .plan(spec.plan)
                .preprocessing(spec.preprocess)
                .alloc_order(spec.order)
                .condition(spec.condition)
                .file_placement(spec.file)
                .seed_offset(spec.seed_offset);
            if let Some(s) = spec.scale {
                chain = chain.scale(s);
            }
            if !spec.verify {
                chain = chain.skip_verification();
            }
            if let Some(interval) = spec.sample_interval {
                chain = chain.sample_interval(interval);
            }
            let key = |r: Result<Experiment, GraphmemError>| {
                r.map(|e| e.config_key()).map_err(|e| e.to_string())
            };
            prop_assert_eq!(key(spec.to_experiment()), key(chain.build()));
        }

        /// Property: spec JSON mangled at the wire boundary — truncated,
        /// byte-flipped, or spliced from two valid specs — never panics.
        /// Parsing fails with a message, and every spec that still parses
        /// lowers to an experiment or a typed `InvalidConfig`.
        #[test]
        fn mangled_spec_json_fails_typed(case in 0u32..u32::MAX) {
            let mut rng = proptest::TestRng::for_case("runspec_fuzz", case);
            let mut bytes = arb_spec(&mut rng).to_json().into_bytes();
            match rng.below(3) {
                0 => bytes.truncate(rng.below(bytes.len() as u64) as usize),
                1 => {
                    for _ in 0..=rng.below(4) {
                        let i = rng.below(bytes.len() as u64) as usize;
                        bytes[i] = rng.next_u64() as u8;
                    }
                }
                _ => {
                    let other = arb_spec(&mut rng).to_json().into_bytes();
                    bytes.truncate(rng.below(bytes.len() as u64) as usize);
                    bytes.extend_from_slice(&other[rng.below(other.len() as u64) as usize..]);
                }
            }
            let text = String::from_utf8_lossy(&bytes).into_owned();
            let lowered = std::panic::catch_unwind(|| {
                RunSpec::from_json(&text).map(|spec| spec.to_experiment().map(|_| ()))
            });
            prop_assert!(lowered.is_ok(), "panicked on {text:?}");
            if let Ok(Ok(Err(e))) = lowered {
                prop_assert!(matches!(e, GraphmemError::InvalidConfig(_)), "{e} on {text:?}");
            }
        }
    }
}
