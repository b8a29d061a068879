//! The experiment runner: one configured, measured workload execution.

use std::sync::Arc;

use graphmem_graph::{reorder, Csr, Dataset};
use graphmem_os::{FilePlacement, System, SystemSpec, ThpMode};
use graphmem_telemetry::Tracer;
use graphmem_workloads::{default_root, AllocOrder, GraphArrays, Kernel};

use crate::attribution::AttributionReport;
use crate::autotune::HotnessProfile;
use crate::condition::{MemoryCondition, Surplus};
use crate::error::GraphmemError;
use crate::graphcache::{self, GraphKey};
use crate::plan::PageSizePlan;
use crate::policy::{PagePolicy, Preprocessing};
use crate::report::{GovernorReport, RunReport};
use crate::spec::RunSpec;

/// One measured run: dataset × kernel × page policy × preprocessing ×
/// allocation order × memory condition.
///
/// An `Experiment` is a [`RunSpec`] plus the run-local knobs the wire
/// format does not carry: the huge-page order, the STLB size, a telemetry
/// handle and the attribution flag. Chain setters from
/// [`Self::builder`], then [`Self::build`] to check the configuration
/// before any graph is generated. `run` is deterministic for a given
/// configuration.
///
/// ```
/// use graphmem_core::prelude::*;
///
/// let exp = Experiment::builder(Dataset::Wiki, Kernel::Bfs)
///     .scale(11)
///     .policy(PagePolicy::ThpSystemWide)
///     .build()
///     .expect("valid configuration");
/// assert!(exp.run().verified);
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    spec: RunSpec,
    huge_order: u8,
    stlb_entries: Option<u32>,
    telemetry: Tracer,
    attribution: bool,
}

impl Experiment {
    /// Start an experiment for `dataset` × `kernel` with every other knob
    /// at its default (for the spec knobs, [`RunSpec::default`]).
    pub fn builder(dataset: Dataset, kernel: Kernel) -> Experiment {
        Experiment::from_spec(RunSpec {
            dataset,
            kernel,
            ..RunSpec::default()
        })
    }

    /// Wrap `spec` with the run-local knobs at their defaults, unvalidated.
    pub(crate) fn from_spec(spec: RunSpec) -> Self {
        Experiment {
            spec,
            huge_order: 6,
            stlb_entries: None,
            telemetry: Tracer::disabled(),
            attribution: false,
        }
    }

    /// Validate the assembled configuration and return it unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`GraphmemError::InvalidConfig`] naming the first
    /// out-of-range knob or impossible kernel/policy combination.
    pub fn build(self) -> Result<Experiment, GraphmemError> {
        self.validate()?;
        Ok(self)
    }

    /// Override the graph scale (log2 vertices). Defaults to the dataset's
    /// standard experiment scale.
    pub fn scale(mut self, scale: u8) -> Self {
        self.spec.scale = Some(scale);
        self
    }

    /// Set the page-size policy, leaving the other [`PageSizePlan`] knobs
    /// as they were; use [`Self::plan`] to set the full page-size surface
    /// in one step.
    pub fn policy(mut self, policy: PagePolicy) -> Self {
        self.spec.plan.policy = policy;
        self
    }

    /// Apply a [`PageSizePlan`]: the single entry point for the whole
    /// page-size surface — static policy, khugepaged overrides,
    /// compaction budget, and the closed-loop governor.
    pub fn plan(mut self, plan: PageSizePlan) -> Self {
        self.spec.plan = plan;
        self
    }

    /// The page-size plan this experiment currently encodes (the inverse
    /// of [`Self::plan`]).
    pub fn page_size_plan(&self) -> PageSizePlan {
        self.spec.plan
    }

    /// Set the preprocessing (vertex reordering).
    pub fn preprocessing(mut self, p: Preprocessing) -> Self {
        self.spec.preprocess = p;
        self
    }

    /// Set the first-touch order of the arrays.
    pub fn alloc_order(mut self, order: AllocOrder) -> Self {
        self.spec.order = order;
        self
    }

    /// Set the memory condition (pressure / fragmentation).
    pub fn condition(mut self, c: MemoryCondition) -> Self {
        self.spec.condition = c;
        self
    }

    /// Set how graph files are loaded (page cache / tmpfs / direct I/O).
    /// The default is the paper's clean methodology (tmpfs on the remote
    /// node); switch to `LocalPageCache` to study the single-use memory
    /// interference of §4.3.
    pub fn file_placement(mut self, fp: FilePlacement) -> Self {
        self.spec.file = fp;
        self
    }

    /// Override the huge-page buddy order of the simulated machine
    /// (default 6 = 256 KiB huge pages in the scaled preset; tests use
    /// smaller orders so tiny graphs still span several huge pages).
    pub fn huge_order(mut self, order: u8) -> Self {
        self.huge_order = order;
        self
    }

    /// Disable output verification against the native twin (saves host
    /// time on very large sweeps; verification is on by default).
    pub fn skip_verification(mut self) -> Self {
        self.spec.verify = false;
        self
    }

    /// Perturb the dataset's generator seed (robustness studies across
    /// random instances; 0 = the canonical instance).
    pub fn seed_offset(mut self, offset: u64) -> Self {
        self.spec.seed_offset = offset;
        self
    }

    /// Ablation knob: override the unified STLB entry count (e.g. a
    /// Broadwell-like 1536/8 = 192 scaled entries; paper §3.1 reports the
    /// same trends on newer parts).
    pub fn stlb_entries(mut self, entries: u32) -> Self {
        self.stlb_entries = Some(entries);
        self
    }

    /// Attach a telemetry [`Tracer`]: the handle is installed across the
    /// simulated system (MMU, zones, kernel) for this run, so events from
    /// every layer land in one cycle-stamped stream. Hold on to a clone of
    /// the handle (or configure a sink) to observe the run.
    pub fn telemetry(mut self, tracer: Tracer) -> Self {
        self.telemetry = tracer;
        self
    }

    /// Sample epoch metrics every `interval` simulated cycles; the series
    /// is attached to the resulting [`RunReport`].
    ///
    /// # Panics
    ///
    /// `run` panics if `interval` is zero.
    pub fn sample_interval(mut self, interval: u64) -> Self {
        self.spec.sample_interval = Some(interval);
        self
    }

    /// Enable the translation-attribution profiler: per-array TLB/walk
    /// accounting plus the epoch-sampled fragmentation/coverage series,
    /// attached to the report as [`RunReport::attribution`]. Attribution
    /// is pure observation — the rest of the report stays bit-identical —
    /// so, like telemetry, it is excluded from [`Self::config_key`].
    pub fn attribution(mut self, on: bool) -> Self {
        self.attribution = on;
        self
    }

    /// The attached telemetry handle (disabled unless [`Self::telemetry`]
    /// set one).
    pub fn tracer(&self) -> &Tracer {
        &self.telemetry
    }

    /// The dataset under test.
    pub fn dataset(&self) -> Dataset {
        self.spec.dataset
    }

    /// The kernel under test.
    pub fn kernel(&self) -> Kernel {
        self.spec.kernel
    }

    /// Generate (and optionally reorder) the input graph, through the
    /// process-wide [`graphcache::shared`] memo.
    fn prepare_graph(&self) -> (Arc<Csr>, u64) {
        let key = GraphKey {
            dataset: self.spec.dataset,
            scale: self.spec.scale.unwrap_or(self.spec.dataset.default_scale()),
            weighted: self.spec.kernel.needs_weights(),
            seed_offset: self.spec.seed_offset,
            preprocessing: self.spec.preprocess,
        };
        graphcache::shared().get_or_prepare(key, || self.prepare_graph_uncached(key.scale))
    }

    fn prepare_graph_uncached(&self, scale: u8) -> (Csr, u64) {
        let RunSpec {
            dataset,
            kernel,
            seed_offset,
            preprocess,
            ..
        } = self.spec;
        let csr = dataset.generate_with_seed(scale, kernel.needs_weights(), seed_offset);
        match preprocess {
            Preprocessing::None => (csr, 0),
            Preprocessing::Dbg => {
                let cycles = reorder::dbg_preprocess_cycles(&csr);
                let perm = reorder::degree_based_grouping(&csr);
                (csr.permuted(&perm), cycles)
            }
            Preprocessing::DegreeSort => {
                // Full sorting costs more than DBG's three linear passes;
                // charge an extra comparison-sort style pass.
                let cycles = reorder::dbg_preprocess_cycles(&csr) * 2;
                let perm = reorder::degree_sort(&csr);
                (csr.permuted(&perm), cycles)
            }
            Preprocessing::Random => {
                let cycles = reorder::dbg_preprocess_cycles(&csr);
                let perm = reorder::random_order(&csr, 0xBAD5EED);
                (csr.permuted(&perm), cycles)
            }
        }
    }

    fn working_set_bytes(&self, csr: &Csr) -> u64 {
        let (vb, eb, wb) = csr.array_bytes();
        let kernel = self.spec.kernel;
        let props = kernel.property_names().len() as u64;
        let prop_bytes = props * csr.num_vertices() as u64 * 8;
        vb + eb + if kernel.needs_weights() { wb } else { 0 } + prop_bytes
    }

    /// A stable textual key covering every field that affects the
    /// simulated result. The telemetry handle and the attribution flag are
    /// deliberately excluded: both observe a run without changing it. The
    /// governor token is appended only when the governor is on, so every
    /// pre-governor config keeps its manifest identity.
    pub fn config_key(&self) -> String {
        let mut key = format!(
            // The trailing token named a second access pipeline, since
            // removed; it stays so every config keeps its hash.
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{:?}|{:?}|{:?}|{:?}|{}|{:?}|Batched",
            self.spec.dataset,
            self.spec.kernel,
            self.spec.scale,
            self.spec.plan.policy,
            self.spec.preprocess,
            self.spec.order,
            self.spec.condition,
            self.spec.file,
            self.spec.verify,
            self.huge_order,
            self.spec.plan.khugepaged_enabled,
            self.spec.plan.khugepaged_interval,
            self.spec.plan.defrag_scan_blocks,
            self.stlb_entries,
            self.spec.seed_offset,
            self.spec.sample_interval,
        );
        if let Some(g) = &self.spec.plan.governor {
            key.push_str(&format!("|gov={g}"));
        }
        key
    }

    /// FNV-1a 64-bit hash of [`Self::config_key`], as fixed-width hex.
    /// This is the identity of a config in run-manifests: `--resume`
    /// matches completed entries by this hash, so it is stable across grid
    /// reordering and process restarts.
    pub fn config_hash(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.config_key().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        format!("{h:016x}")
    }

    /// Check every knob and kernel/policy combination, returning the
    /// first problem found. [`Self::build`] calls this so an invalid
    /// configuration is rejected before any graph is generated;
    /// [`Self::try_run`] re-checks because setters may still be chained
    /// after `build`.
    fn validate(&self) -> Result<(), GraphmemError> {
        let invalid = |msg: String| Err(GraphmemError::InvalidConfig(msg));
        let RunSpec {
            kernel,
            scale,
            plan,
            condition,
            sample_interval,
            ..
        } = &self.spec;
        if *sample_interval == Some(0) {
            return invalid("sample interval must be positive".into());
        }
        if let Some(scale) = scale {
            if !(4..=30).contains(scale) {
                return invalid(format!("scale {scale} outside the supported 4..=30 (log2)"));
            }
        }
        if self.huge_order == 0 || self.huge_order > 12 {
            return invalid(format!(
                "huge order {} outside the supported 1..=12",
                self.huge_order
            ));
        }
        // The whole page-size surface validates through the plan — one
        // path whether the knobs arrived via plan() or policy().
        plan.validate()?;
        // Only the kernel-dependent combination check lives outside it.
        if matches!(plan.policy, PagePolicy::PerArray { values: true, .. })
            && !kernel.needs_weights()
        {
            return invalid(format!(
                "policy advises the values array but kernel {} is unweighted",
                kernel.name()
            ));
        }
        if !(0.0..=1.0).contains(&condition.fragmentation) {
            return invalid(format!(
                "fragmentation {} outside 0..=1",
                condition.fragmentation
            ));
        }
        if !(0.0..=1.0).contains(&condition.noise_occupancy) {
            return invalid(format!(
                "noise occupancy {} outside 0..=1",
                condition.noise_occupancy
            ));
        }
        // Negative surpluses are legitimate: they model oversubscription
        // (RAM below the working set, the paper's swap-thrashing regime).
        if let Surplus::FractionOfWss(f) = condition.surplus {
            if !f.is_finite() {
                return invalid(format!("surplus fraction {f} must be finite"));
            }
        }
        Ok(())
    }

    /// Execute the experiment.
    ///
    /// # Panics
    ///
    /// Panics on internal simulator inconsistencies (a correctness bug)
    /// or on an unsatisfiable configuration — [`Self::try_run`] is the
    /// non-panicking form. Legitimate memory pressure never panics; it
    /// shows up as cycles.
    pub fn run(&self) -> RunReport {
        match self.try_run() {
            Ok(report) => report,
            Err(e) => panic!("{e}"),
        }
    }

    /// Execute the experiment, reporting configuration and resource
    /// problems as typed errors.
    ///
    /// # Errors
    ///
    /// Returns [`GraphmemError::Resource`] when the simulated node cannot
    /// satisfy the configured reservation or pressure, and
    /// [`GraphmemError::InvalidConfig`] for unsatisfiable knob values.
    /// Internal simulator inconsistencies still panic (they are bugs, not
    /// outcomes) — the sweep supervisor catches those at its isolation
    /// boundary.
    pub fn try_run(&self) -> Result<RunReport, GraphmemError> {
        self.validate()?;
        let (csr, preprocess_cycles) = self.prepare_graph();
        let csr: &Csr = &csr;
        let wss = self.working_set_bytes(csr);
        let policy = self.resolve_policy(csr);

        // Size the node: enough for the pressured free target plus a hog
        // cushion, or a comfortable multiple when unbounded.
        // Room for: the app budget under noise (up to ~2x WSS at the
        // default 0.5 occupancy), surplus, kernel reserve, and a hog
        // cushion so Memhog always has something to pin.
        let node_mb = (wss * 3 / (1 << 20) + 64).max(64);
        let mut spec = SystemSpec::scaled_with_order(node_mb, self.huge_order);
        spec.file_placement = self.spec.file;
        if let Some(e) = self.spec.plan.khugepaged_enabled {
            spec.thp.khugepaged.enabled = e;
        }
        if let Some(i) = self.spec.plan.khugepaged_interval {
            spec.thp.khugepaged.scan_interval_cycles = i;
        }
        if let Some(b) = self.spec.plan.defrag_scan_blocks {
            spec.thp.fault_defrag = b > 0;
            spec.thp.defrag_scan_blocks = b;
        }
        if let Some(entries) = self.stlb_entries {
            // Pick an associativity that keeps the set count a power of two
            // (Broadwell's 1536-entry STLB is 12-way for the same reason).
            let ways = [8u32, 12, 6, 4, 16, 3, 2, 1]
                .into_iter()
                .find(|&w| entries % w == 0 && ((entries / w) as u64).is_power_of_two())
                .unwrap_or(entries);
            spec.mmu.tlb.stlb.entries = entries;
            spec.mmu.tlb.stlb.ways = ways;
        }
        spec.thp.mode = match policy {
            PagePolicy::BaseOnly | PagePolicy::HugetlbProperty => ThpMode::Never,
            PagePolicy::ThpSystemWide => ThpMode::Always,
            PagePolicy::PerArray { .. }
            | PagePolicy::SelectiveProperty { .. }
            | PagePolicy::AutoSelective { .. } => ThpMode::Madvise,
        };
        let mut sys = System::new(spec);
        if self.telemetry.is_enabled() {
            sys.attach_telemetry(self.telemetry.clone());
        }
        if let Some(interval) = self.spec.sample_interval {
            sys.enable_sampling(interval);
        }
        if self.attribution {
            // Before any VMA exists, so condition artifacts and graph
            // arrays alike get charged from their first touch.
            sys.enable_attribution(true);
        }
        if let Some(g) = self.spec.plan.governor {
            // After the explicit attribution toggle: enable_governor only
            // forces attribution on when the user didn't ask for it, so
            // the order user-attribution-then-governor never resets
            // counters. Before any VMA exists, like attribution, so the
            // governor's first epoch sees every region's full history.
            sys.enable_governor(g);
        }
        let hugetlb_property = matches!(policy, PagePolicy::HugetlbProperty);
        if hugetlb_property {
            // Boot-time reservation: before any pressure or fragmentation
            // exists (that is the whole point of the mechanism, §2.3).
            let huge_bytes = 4096u64 << self.huge_order;
            let props = self.spec.kernel.property_names().len() as u64;
            let pages = (props * csr.num_vertices() as u64 * 8).div_ceil(huge_bytes) + props; // rounding slack per array
            let got = sys.hugetlb_reserve(pages);
            if got != pages {
                return Err(GraphmemError::Resource(format!(
                    "hugetlb reservation: wanted {pages} pages at boot, got {got}"
                )));
            }
        }
        let _artifacts = self.spec.condition.try_apply(&mut sys, wss)?;

        let mut arrays = GraphArrays::map_with(&mut sys, csr, self.spec.kernel, hugetlb_property);
        Self::apply_advice(policy, &mut sys, &arrays);

        let cp_init = sys.checkpoint();
        arrays.initialize(&mut sys, self.spec.order);
        let (init_cycles, _, _) = sys.since(&cp_init);

        let root = default_root(csr);
        let cp_compute = sys.checkpoint();
        let output = self.spec.kernel.run_simulated(&mut sys, &mut arrays, root);
        let (compute_cycles, perf, _) = sys.since(&cp_compute);

        let verified = if self.spec.verify {
            output == self.spec.kernel.run_native(csr, root)
        } else {
            true
        };

        // Huge-page usage accounting at end of run.
        let huge_bytes_of = |sys: &System, base| sys.mapping_report(base).huge_bytes;
        let property_huge_bytes: u64 = arrays
            .prop
            .iter()
            .map(|p| huge_bytes_of(&sys, p.base()))
            .sum();
        let mut total_huge_bytes = property_huge_bytes
            + huge_bytes_of(&sys, arrays.vertex.base())
            + huge_bytes_of(&sys, arrays.edge.base());
        if let Some(v) = &arrays.values {
            total_huge_bytes += huge_bytes_of(&sys, v.base());
        }

        let series = sys.take_series();
        // Gate on the experiment's own flag: the governor forces the
        // MMU-side attribution tables on for its signal, but only an
        // explicit attribution(true) may attach the profile (governor-on
        // reports must not grow sections the user didn't ask for).
        let attribution = if self.attribution {
            AttributionReport::collect(&mut sys)
        } else {
            None
        };
        let governor = sys.governor_stats().map(|stats| GovernorReport {
            config: self
                .spec
                .plan
                .governor
                .expect("governor stats only exist when configured")
                .to_string(),
            epochs: stats.epochs,
            promotions: stats.promotions,
            demotions: stats.demotions,
            denied_by_fragmentation: stats.denied_by_fragmentation,
            series: sys.governor_series().unwrap_or_default().to_vec(),
        });
        let (memo_hits, memo_misses) = sys.memo_stats();
        crate::memostats::record(memo_hits, memo_misses);
        let _ = self.telemetry.flush();

        Ok(RunReport {
            labels: [
                self.spec.dataset.name().to_string(),
                self.spec.kernel.name().to_string(),
                if matches!(self.spec.plan.policy, PagePolicy::AutoSelective { .. }) {
                    format!("{}->{}", self.spec.plan.policy.label(), policy.label())
                } else {
                    policy.label()
                },
                self.spec.preprocess.label().to_string(),
                self.spec.condition.label(),
            ],
            init_cycles,
            compute_cycles,
            preprocess_cycles,
            perf,
            os: *sys.os_stats(),
            footprint_bytes: arrays.footprint_bytes(),
            property_bytes: arrays.property_bytes(),
            property_huge_bytes,
            total_huge_bytes,
            verified,
            series,
            attribution,
            governor,
        })
    }

    /// Resolve an automatic policy against the (reordered) input graph.
    fn resolve_policy(&self, csr: &Csr) -> PagePolicy {
        match self.spec.plan.policy {
            PagePolicy::AutoSelective { coverage } => {
                let huge_bytes = 4096u64 << self.huge_order;
                let profile = HotnessProfile::from_graph(csr, 8, huge_bytes);
                PagePolicy::SelectiveProperty {
                    fraction: profile.prefix_fraction_for_coverage(coverage),
                }
            }
            p => p,
        }
    }

    /// Issue the `madvise(MADV_HUGEPAGE)` calls the policy prescribes.
    fn apply_advice(policy: PagePolicy, sys: &mut System, arrays: &GraphArrays) {
        match policy {
            PagePolicy::BaseOnly | PagePolicy::ThpSystemWide => {}
            PagePolicy::PerArray {
                vertex,
                edge,
                values,
                property,
            } => {
                if vertex {
                    sys.madvise_hugepage(arrays.vertex.base(), arrays.vertex.bytes());
                }
                if edge {
                    sys.madvise_hugepage(arrays.edge.base(), arrays.edge.bytes());
                }
                if values {
                    if let Some(v) = &arrays.values {
                        sys.madvise_hugepage(v.base(), v.bytes());
                    }
                }
                if property {
                    for p in &arrays.prop {
                        sys.madvise_hugepage(p.base(), p.bytes());
                    }
                }
            }
            PagePolicy::SelectiveProperty { fraction } => {
                assert!(
                    (0.0..=1.0).contains(&fraction),
                    "selectivity {fraction} outside 0.0..=1.0"
                );
                for p in &arrays.prop {
                    let len = (p.bytes() as f64 * fraction) as u64;
                    if len > 0 {
                        sys.madvise_hugepage(p.base(), len);
                    }
                }
            }
            PagePolicy::AutoSelective { .. } => {
                unreachable!("AutoSelective is resolved before advice is applied")
            }
            PagePolicy::HugetlbProperty => {} // placement handled at map time
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmem_os::GovernorConfig;

    /// Small but huge-page-meaningful: 32 Ki vertices with 64 KiB huge
    /// pages, so the property array spans 4 huge pages.
    fn exp(kernel: Kernel) -> Experiment {
        Experiment::builder(Dataset::Wiki, kernel)
            .scale(15)
            .huge_order(4)
            .build()
            .expect("valid test config")
    }

    /// Tiny and fast, for pure correctness checks.
    fn tiny(kernel: Kernel) -> Experiment {
        Experiment::builder(Dataset::Wiki, kernel)
            .scale(11)
            .build()
            .expect("valid test config")
    }

    #[test]
    fn builder_rejects_bad_knobs_up_front() {
        let bad = |b: Experiment| {
            let err = b.build().expect_err("must be rejected");
            assert!(matches!(err, GraphmemError::InvalidConfig(_)), "{err}");
        };
        bad(Experiment::builder(Dataset::Wiki, Kernel::Bfs).scale(2));
        bad(Experiment::builder(Dataset::Wiki, Kernel::Bfs).sample_interval(0));
        bad(Experiment::builder(Dataset::Wiki, Kernel::Bfs)
            .policy(PagePolicy::SelectiveProperty { fraction: 1.5 }));
        bad(Experiment::builder(Dataset::Wiki, Kernel::Bfs)
            .policy(PagePolicy::AutoSelective { coverage: -0.1 }));
        // The values array only exists for weighted kernels.
        bad(
            Experiment::builder(Dataset::Wiki, Kernel::Bfs).policy(PagePolicy::PerArray {
                vertex: false,
                edge: false,
                values: true,
                property: false,
            }),
        );
        assert!(Experiment::builder(Dataset::Wiki, Kernel::Sssp)
            .policy(PagePolicy::PerArray {
                vertex: false,
                edge: false,
                values: true,
                property: false,
            })
            .build()
            .is_ok());
        bad(Experiment::builder(Dataset::Wiki, Kernel::Bfs)
            .condition(MemoryCondition::fragmented(1.5)));
        bad(Experiment::builder(Dataset::Wiki, Kernel::Bfs)
            .condition(MemoryCondition::pressured(Surplus::FractionOfWss(f64::NAN))));
        // Negative surpluses model oversubscription — valid, not a typo.
        assert!(Experiment::builder(Dataset::Wiki, Kernel::Bfs)
            .condition(MemoryCondition::pressured(Surplus::FractionOfWss(-0.06)))
            .build()
            .is_ok());
        // Attribution is observation, set like any other knob before build.
        assert!(Experiment::builder(Dataset::Wiki, Kernel::Bfs)
            .attribution(true)
            .build()
            .is_ok());
        // A setter chained after build is re-checked by try_run, before
        // any graph is prepared: nothing lands in the graph cache.
        let seed_offset = 0x5ca1e2;
        let err = Experiment::builder(Dataset::Wiki, Kernel::Bfs)
            .seed_offset(seed_offset)
            .build()
            .expect("valid before the bad setter")
            .scale(2)
            .try_run()
            .expect_err("scale 2 rejected at run time");
        assert!(matches!(err, GraphmemError::InvalidConfig(_)), "{err}");
        let key = GraphKey {
            dataset: Dataset::Wiki,
            scale: 2,
            weighted: false,
            seed_offset,
            preprocessing: Preprocessing::None,
        };
        assert!(graphcache::shared().get(&key).is_none());
    }

    #[test]
    fn plan_round_trips_through_experiment() {
        let plan = PageSizePlan {
            policy: PagePolicy::ThpSystemWide,
            khugepaged_enabled: Some(false),
            khugepaged_interval: Some(123_456),
            defrag_scan_blocks: Some(3),
            governor: Some(GovernorConfig::default()),
        };
        let exp = Experiment::builder(Dataset::Wiki, Kernel::Bfs)
            .scale(11)
            .plan(plan)
            .build()
            .expect("valid plan");
        assert_eq!(exp.page_size_plan(), plan);
    }

    #[test]
    fn plan_validation_is_reachable_from_build() {
        let err = Experiment::builder(Dataset::Wiki, Kernel::Bfs)
            .plan(PageSizePlan {
                khugepaged_interval: Some(0),
                ..PageSizePlan::default()
            })
            .build()
            .expect_err("zero interval rejected");
        assert!(matches!(err, GraphmemError::InvalidConfig(_)), "{err}");
        let err = Experiment::builder(Dataset::Wiki, Kernel::Bfs)
            .plan(PageSizePlan::default().governed(GovernorConfig {
                epoch_cycles: 0,
                ..GovernorConfig::default()
            }))
            .build()
            .expect_err("bad governor rejected");
        assert!(matches!(err, GraphmemError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn governor_participates_in_config_hash_only_when_on() {
        let off = tiny(Kernel::Bfs);
        let key = off.config_key();
        assert!(!key.contains("gov="), "governor-off key unchanged: {key}");
        let on = tiny(Kernel::Bfs).plan(
            PageSizePlan::with_policy(PagePolicy::ThpSystemWide)
                .governed(GovernorConfig::default()),
        );
        assert!(on.config_key().contains("gov=epoch="));
        let other = tiny(Kernel::Bfs).plan(
            PageSizePlan::with_policy(PagePolicy::ThpSystemWide).governed(GovernorConfig {
                promote_cost: 3.0,
                ..GovernorConfig::default()
            }),
        );
        assert_ne!(on.config_hash(), other.config_hash());
    }

    #[test]
    fn baseline_runs_verified_with_no_huge_pages() {
        let r = tiny(Kernel::Bfs).run();
        assert!(r.verified);
        assert_eq!(r.total_huge_bytes, 0);
        assert!(r.dtlb_miss_rate() > 0.0);
        assert_eq!(r.preprocess_cycles, 0);
    }

    #[test]
    fn thp_systemwide_backs_everything_and_speeds_up() {
        let base = exp(Kernel::Bfs).run();
        let thp = exp(Kernel::Bfs).policy(PagePolicy::ThpSystemWide).run();
        assert!(thp.verified);
        assert!(
            thp.huge_memory_fraction() > 0.9,
            "{}",
            thp.huge_memory_fraction()
        );
        assert!(thp.speedup_over(&base) > 1.0);
        assert!(thp.dtlb_miss_rate() < base.dtlb_miss_rate());
    }

    #[test]
    fn property_only_policy_uses_far_less_huge_memory() {
        let prop = exp(Kernel::Bfs).policy(PagePolicy::property_only()).run();
        assert!(prop.verified);
        assert!(prop.property_huge_fraction() > 0.9);
        assert!(prop.huge_memory_fraction() < 0.25);
    }

    #[test]
    fn selective_policy_advises_prefix_only() {
        let r = exp(Kernel::Bfs)
            .preprocessing(Preprocessing::Dbg)
            .policy(PagePolicy::SelectiveProperty { fraction: 0.4 })
            .run();
        assert!(r.verified);
        assert!(r.preprocess_cycles > 0);
        let f = r.property_huge_fraction();
        assert!(f > 0.2 && f < 0.6, "property huge fraction {f}");
    }

    #[test]
    fn pressure_reduces_thp_coverage() {
        let free = exp(Kernel::Bfs).policy(PagePolicy::ThpSystemWide).run();
        let tight = exp(Kernel::Bfs)
            .policy(PagePolicy::ThpSystemWide)
            .condition(MemoryCondition::pressured(Surplus::FractionOfWss(0.05)))
            .run();
        assert!(tight.verified);
        assert!(
            tight.huge_memory_fraction() < free.huge_memory_fraction() * 0.8,
            "tight {} vs free {}",
            tight.huge_memory_fraction(),
            free.huge_memory_fraction()
        );
    }

    #[test]
    fn config_hash_ignores_telemetry_but_tracks_knobs() {
        let a = tiny(Kernel::Bfs);
        let b = tiny(Kernel::Bfs).telemetry(Tracer::enabled(
            graphmem_telemetry::TraceConfig::default().mask(graphmem_telemetry::EventMask::ALL),
        ));
        assert_eq!(a.config_hash(), b.config_hash());
        assert_eq!(a.config_hash().len(), 16);
        // Attribution is observation, like telemetry: same identity.
        let profiled = tiny(Kernel::Bfs).attribution(true);
        assert_eq!(a.config_hash(), profiled.config_hash());
        let c = tiny(Kernel::Bfs).policy(PagePolicy::ThpSystemWide);
        assert_ne!(a.config_hash(), c.config_hash());
        let d = tiny(Kernel::Bfs).seed_offset(1);
        assert_ne!(a.config_hash(), d.config_hash());
    }

    #[test]
    fn attribution_attaches_profile_without_perturbing_the_run() {
        let plain = tiny(Kernel::Bfs).run();
        let profiled = tiny(Kernel::Bfs).attribution(true).run();
        let attr = profiled.attribution.as_ref().expect("profile attached");
        // Every graph array shows up as an attributed region with traffic.
        for name in ["vertex_array", "edge_array", "property_array"] {
            let r = attr
                .region(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert!(r.counters.accesses_total() > 0, "{name} saw no accesses");
            assert!(r.counters.stlb_misses_total() > 0, "{name} never walked");
            assert!(r.mapped_bytes > 0, "{name} not mapped");
        }
        // Observation only: stripping the profile leaves a report
        // byte-identical to a run that never enabled it.
        let mut stripped = profiled.clone();
        stripped.attribution = None;
        assert_eq!(stripped.to_json(), plain.to_json());
    }

    #[test]
    fn governor_run_attaches_report_but_no_attribution_section() {
        let plain = tiny(Kernel::Bfs).run();
        assert!(plain.governor.is_none());
        let gov = tiny(Kernel::Bfs)
            .plan(
                PageSizePlan::with_policy(PagePolicy::BaseOnly).governed(GovernorConfig {
                    epoch_cycles: 200_000,
                    promote_cost: 0.5,
                    demote_cost: 0.1,
                    ..GovernorConfig::default()
                }),
            )
            .run();
        assert!(gov.verified);
        let rep = gov.governor.as_ref().expect("governor report attached");
        assert!(rep.epochs > 0, "epochs fired during the run");
        assert_eq!(rep.series.len() as u64, rep.epochs);
        // The governor consumes attribution internally, but the report
        // only carries the profile when the user asked for it.
        assert!(gov.attribution.is_none());
    }

    #[test]
    fn try_run_reports_invalid_sample_interval() {
        let err = tiny(Kernel::Bfs).sample_interval(0).try_run().unwrap_err();
        assert!(matches!(err, GraphmemError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn all_kernels_verify() {
        for kernel in Kernel::ALL {
            let r = tiny(kernel).policy(PagePolicy::ThpSystemWide).run();
            assert!(r.verified, "{kernel} wrong result");
            assert!(r.compute_cycles > 0);
        }
    }
}
