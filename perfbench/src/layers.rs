//! The per-layer metric set of the traced run. Every workload reports the
//! same names; a layer the workload does not reach through the
//! benchmark's own calls reports 0.

use graphmem_core::RunReport;

use crate::probes::Probes;
use crate::{ratio, Outcome};

/// Simulated counters summed over a set of reports. These are exact: the
/// same seed gives the same sums on every run.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimTotals {
    pub cycles: u64,
    pub compute_cycles: u64,
    pub accesses: u64,
    pub dtlb_misses: u64,
    pub stlb_misses: u64,
    pub walk_pte_reads: u64,
    pub translation_cycles: u64,
    pub data_cycles: u64,
    pub dram_accesses: u64,
    pub faults: u64,
    pub huge_faults: u64,
    pub huge_fallbacks: u64,
    pub direct_compactions: u64,
    pub frames_migrated: u64,
    pub promotions: u64,
    pub demotions: u64,
    pub kernel_cycles: u64,
    pub governor_epochs: u64,
    pub governor_promotions: u64,
    pub governor_demotions: u64,
    pub governor_denied: u64,
}

impl SimTotals {
    pub fn add(&mut self, r: &RunReport) {
        self.cycles += r.total_cycles();
        self.compute_cycles += r.compute_cycles;
        self.accesses += r.perf.accesses;
        self.dtlb_misses += r.perf.dtlb_misses;
        self.stlb_misses += r.perf.stlb_misses;
        self.walk_pte_reads += r.perf.walk_pte_reads;
        self.translation_cycles += r.perf.translation_cycles;
        self.data_cycles += r.perf.data_cycles;
        self.dram_accesses += r.perf.data_level_hits[3];
        self.faults += r.os.faults;
        self.huge_faults += r.os.huge_faults;
        self.huge_fallbacks += r.os.huge_fallbacks;
        self.direct_compactions += r.os.direct_compactions;
        self.frames_migrated += r.os.frames_migrated;
        self.promotions += r.os.promotions;
        self.demotions += r.os.demotions;
        self.kernel_cycles += r.os.kernel_cycles;
        if let Some(g) = &r.governor {
            self.governor_epochs += g.epochs;
            self.governor_promotions += g.promotions;
            self.governor_demotions += g.demotions;
            self.governor_denied += g.denied_by_fragmentation;
        }
    }
}

/// Everything the traced run measured, before it is flattened into
/// metrics. Host times are medians over passes (or requests) unless noted.
#[derive(Debug, Default)]
pub struct Layers {
    pub generate_s: f64,
    pub reorder_s: f64,
    pub graphcache: (u64, u64),
    pub condition_s: f64,
    pub boot_s: f64,
    pub sim: SimTotals,
    /// Translation-memo `(hits, misses)` of the simulated runs.
    pub memo: (u64, u64),
    pub map_s: f64,
    pub init_s: f64,
    pub kernel_s: f64,
    pub verify_s: f64,
    pub post_ms: f64,
    pub settle_ms: f64,
    pub fetch_ms: f64,
    pub hit_rtt_ms: Vec<f64>,
    pub miss_rtt_ms: Vec<f64>,
    /// Result-store `(hits, misses)` from the service's `/metrics`.
    pub results: (u64, u64),
    pub store_fsyncs: u64,
    pub rejected: u64,
    pub trace_overhead: f64,
}

impl Layers {
    /// Push every per-layer metric, in a fixed order, into `out`.
    pub fn emit(&self, probes: &Probes, out: &mut Outcome) {
        let s = &self.sim;
        let count = |v: u64| v as f64;
        out.push("graph.generate_s", self.generate_s, "s");
        out.push("graph.reorder_s", self.reorder_s, "s");
        let (gc_hits, gc_misses) = self.graphcache;
        let gc_rate = ratio(gc_hits, gc_hits + gc_misses);
        out.push("core.graphcache_hit_rate", gc_rate, "ratio");
        out.push("physmem.condition_s", self.condition_s, "s");
        out.push("os.boot_s", self.boot_s, "s");
        out.push("os.faults", count(s.faults), "count");
        out.push("os.huge_faults", count(s.huge_faults), "count");
        out.push("os.huge_fallbacks", count(s.huge_fallbacks), "count");
        let success = ratio(s.huge_faults, s.huge_faults + s.huge_fallbacks);
        out.push("os.huge_fault_success", success, "ratio");
        out.push(
            "os.direct_compactions",
            count(s.direct_compactions),
            "count",
        );
        out.push("os.frames_migrated", count(s.frames_migrated), "count");
        out.push("os.promotions", count(s.promotions), "count");
        out.push("os.demotions", count(s.demotions), "count");
        out.push("os.kernel_cycles", count(s.kernel_cycles), "cycles");
        out.push("os.governor_epochs", count(s.governor_epochs), "count");
        out.push(
            "os.governor_promotions",
            count(s.governor_promotions),
            "count",
        );
        out.push(
            "os.governor_demotions",
            count(s.governor_demotions),
            "count",
        );
        out.push("os.governor_denied", count(s.governor_denied), "count");
        let memo_rate = ratio(self.memo.0, self.memo.0 + self.memo.1);
        out.push("os.memo_hit_rate", memo_rate, "ratio");
        out.push("os.fault_base_us", probes.fault_base_us, "us");
        out.push("os.fault_huge_us", probes.fault_huge_us, "us");
        out.push("workloads.map_s", self.map_s, "s");
        out.push("workloads.init_s", self.init_s, "s");
        out.push("workloads.kernel_s", self.kernel_s, "s");
        out.push("workloads.verify_s", self.verify_s, "s");
        let ns_per_access = if s.accesses == 0 || self.kernel_s == 0.0 {
            0.0
        } else {
            self.kernel_s * 1e9 / s.accesses as f64
        };
        out.push("workloads.kernel_ns_per_access", ns_per_access, "ns");
        out.push("vm.accesses", count(s.accesses), "count");
        out.push(
            "vm.dtlb_miss_rate",
            ratio(s.dtlb_misses, s.accesses),
            "ratio",
        );
        out.push(
            "vm.stlb_miss_rate",
            ratio(s.stlb_misses, s.accesses),
            "ratio",
        );
        out.push("vm.walk_pte_reads", count(s.walk_pte_reads), "count");
        out.push(
            "vm.translation_cycles",
            count(s.translation_cycles),
            "cycles",
        );
        out.push("vm.data_cycles", count(s.data_cycles), "cycles");
        let share = ratio(s.translation_cycles, s.compute_cycles);
        out.push("vm.translation_share", share, "ratio");
        out.push("vm.dram_share", ratio(s.dram_accesses, s.accesses), "ratio");
        out.push("vm.gather_ns_per_access", probes.gather_ns, "ns");
        out.push("vm.stream_ns_per_access", probes.stream_ns, "ns");
        out.push("server.post_ms", self.post_ms, "ms");
        out.push("server.settle_ms", self.settle_ms, "ms");
        out.push("server.fetch_ms", self.fetch_ms, "ms");
        let (hits, misses) = (&self.hit_rtt_ms, &self.miss_rtt_ms);
        out.push("server.hit_rtt_p50_ms", crate::percentile(hits, 0.5), "ms");
        out.push("server.hit_rtt_p90_ms", crate::percentile(hits, 0.9), "ms");
        out.push("server.hit_samples", hits.len() as f64, "count");
        out.push(
            "server.miss_rtt_p50_ms",
            crate::percentile(misses, 0.5),
            "ms",
        );
        out.push(
            "server.miss_rtt_p90_ms",
            crate::percentile(misses, 0.9),
            "ms",
        );
        out.push("server.miss_samples", misses.len() as f64, "count");
        out.push("server.store_put_ms", probes.store_put_ms, "ms");
        out.push("server.store_get_us", probes.store_get_us, "us");
        let (r_hits, r_misses) = self.results;
        let result_rate = ratio(r_hits, r_hits + r_misses);
        out.push("server.result_hit_rate", result_rate, "ratio");
        out.push("server.store_fsyncs", count(self.store_fsyncs), "count");
        out.push("server.rejected", count(self.rejected), "count");
        out.push("bench.trace_overhead", self.trace_overhead, "ratio");
    }
}
