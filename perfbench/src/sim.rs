//! The two simulation workloads, `walk-4k` and `frag-governed`: kron BFS
//! and PageRank, run through `Experiment::try_run` (untraced) and replayed
//! through the public calls of each layer (traced).

use std::time::Instant;

use graphmem_core::graphcache::{self, GraphKey};
use graphmem_core::{
    Experiment, GovernorConfig, MemoryCondition, PagePolicy, PageSizePlan, Preprocessing,
    RunReport, Surplus,
};
use graphmem_graph::{reorder, Csr, Dataset};
use graphmem_os::{FilePlacement, GovernorStats, OsStats, System, SystemSpec, ThpMode};
use graphmem_vm::PerfCounters;
use graphmem_workloads::{default_root, AllocOrder, GraphArrays, Kernel};

use crate::layers::{Layers, SimTotals};
use crate::probes::Probes;
use crate::trace::Trace;
use crate::{fnv1a, median, out_dir, peak_rss_mib, Args, Outcome, Tally};

const DATASET: Dataset = Dataset::Kron25;
/// log2 vertices: the property arrays span 2 MiB per kernel, 4x the
/// scaled STLB reach, so 4 KiB pages stay translation-bound.
const SCALE: u8 = 16;
/// The experiment's default huge-page order (256 KiB huge pages).
const HUGE_ORDER: u8 = 6;
const KERNELS: [Kernel; 2] = [Kernel::Bfs, Kernel::Pagerank];
/// Set-up is repeated this many times and its median reported.
const SETUP_ROUNDS: usize = 5;
/// Timed passes are repeated for `--seconds`, and at least this often.
const MIN_PASSES: usize = 3;

/// The shortest of a config's timed runs. The work is deterministic, so
/// host interference only ever adds time; on a shared host whose speed
/// swings between states that last seconds to minutes, the fastest run is
/// the steadiest estimate of the work's own cost.
fn fastest(secs: &[f64]) -> f64 {
    secs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// One simulation workload: the page-size and memory setting under which
/// both kernels run.
#[derive(Debug, Clone, Copy)]
pub struct SimWorkload {
    policy: PagePolicy,
    preprocessing: Preprocessing,
    condition: MemoryCondition,
    governor: Option<GovernorConfig>,
}

/// A run's reference reports: the warm pass every later pass must repeat
/// byte for byte.
struct Reference {
    reports: Vec<RunReport>,
    json: Vec<String>,
}

impl Reference {
    fn totals(&self) -> SimTotals {
        let mut t = SimTotals::default();
        self.reports.iter().for_each(|r| t.add(r));
        t
    }

    fn digest(&self) -> String {
        fnv1a(self.json.iter().map(String::as_str))
    }
}

/// What the traced replay of one config observed.
struct Replay {
    init_cycles: u64,
    compute_cycles: u64,
    perf: PerfCounters,
    os: OsStats,
    governor: Option<GovernorStats>,
    memo: (u64, u64),
    verified: bool,
}

impl Replay {
    /// The first field that differs from the untraced report, if any.
    fn mismatch(&self, r: &RunReport) -> Option<&'static str> {
        let gov = r.governor.as_ref().map(|g| {
            (
                g.epochs,
                g.promotions,
                g.demotions,
                g.denied_by_fragmentation,
            )
        });
        let mine = self.governor.map(|g| {
            (
                g.epochs,
                g.promotions,
                g.demotions,
                g.denied_by_fragmentation,
            )
        });
        [
            ("verified", self.verified && r.verified),
            ("init_cycles", self.init_cycles == r.init_cycles),
            ("compute_cycles", self.compute_cycles == r.compute_cycles),
            ("perf", self.perf == r.perf),
            ("os", self.os == r.os),
            ("governor", gov == mine),
        ]
        .into_iter()
        .find(|&(_, ok)| !ok)
        .map(|(field, _)| field)
    }
}

impl SimWorkload {
    pub fn named(name: &str) -> Option<SimWorkload> {
        match name {
            "walk-4k" => Some(SimWorkload {
                policy: PagePolicy::BaseOnly,
                preprocessing: Preprocessing::None,
                condition: MemoryCondition::unbounded(),
                governor: None,
            }),
            "frag-governed" => Some(SimWorkload {
                policy: PagePolicy::ThpSystemWide,
                preprocessing: Preprocessing::Dbg,
                condition: MemoryCondition::from_knobs(Some(Surplus::FractionOfWss(0.1)), 0.6),
                governor: Some(GovernorConfig {
                    epoch_cycles: 2_000_000,
                    ..GovernorConfig::default()
                }),
            }),
            _ => None,
        }
    }

    fn experiments(&self, seed: u64) -> Result<Vec<Experiment>, String> {
        let plan = PageSizePlan {
            governor: self.governor,
            ..PageSizePlan::with_policy(self.policy)
        };
        KERNELS
            .iter()
            .map(|&kernel| {
                Experiment::builder(DATASET, kernel)
                    .scale(SCALE)
                    .plan(plan)
                    .preprocessing(self.preprocessing)
                    .condition(self.condition)
                    .seed_offset(seed)
                    .build()
                    .map_err(|e| e.to_string())
            })
            .collect()
    }

    /// Generate and (for DBG) reorder the input graph: the work the
    /// prepared-graph cache memoizes. Returns the graph and its analytic
    /// preprocessing cycles.
    fn prepare(&self, seed: u64, trace: Option<(&Trace, u64)>) -> Result<(Csr, u64), String> {
        fn span<T>(trace: Option<(&Trace, u64)>, name: &'static str, f: impl FnOnce() -> T) -> T {
            match trace {
                Some((t, id)) => t.span(name, id, None, f),
                None => f(),
            }
        }
        let csr = span(trace, "graph.generate", || {
            DATASET.generate_with_seed(SCALE, false, seed)
        });
        match self.preprocessing {
            Preprocessing::None => Ok((csr, 0)),
            Preprocessing::Dbg => Ok(span(trace, "graph.reorder", || {
                let cycles = reorder::dbg_preprocess_cycles(&csr);
                let perm = reorder::degree_based_grouping(&csr);
                (csr.permuted(&perm), cycles)
            })),
            other => Err(format!("preprocessing {other:?} is not benchmarked")),
        }
    }

    /// Prepare the input graph `SETUP_ROUNDS` times; returns the graph and
    /// each round's host seconds.
    fn setup(&self, seed: u64, trace: Option<&Trace>) -> Result<((Csr, u64), Vec<f64>), String> {
        let mut times = Vec::new();
        let mut graph = None;
        for round in 0..SETUP_ROUNDS {
            let t = Instant::now();
            graph = Some(self.prepare(seed, trace.map(|t| (t, round as u64)))?);
            times.push(t.elapsed().as_secs_f64());
        }
        Ok((graph.ok_or("no set-up round ran")?, times))
    }

    /// The warm pass: fills the prepared-graph cache and fixes the
    /// reference bytes. Also checks that set-up built the very graph the
    /// cache holds, so `setup_s` times the work the program does.
    fn reference(
        &self,
        exps: &[Experiment],
        graph: &(Csr, u64),
        seed: u64,
        tally: &mut Tally,
    ) -> Result<Reference, String> {
        let mut reports = Vec::new();
        for exp in exps {
            let report = exp
                .try_run()
                .map_err(|e| format!("{}: {e}", exp.config_key()))?;
            tally.check(report.verified, || {
                format!("{}: unverified", exp.config_key())
            });
            tally.check(report.preprocess_cycles == graph.1, || {
                format!(
                    "{}: preprocessing cycles differ from set-up's",
                    exp.config_key()
                )
            });
            reports.push(report);
        }
        let key = GraphKey {
            dataset: DATASET,
            scale: SCALE,
            weighted: false,
            seed_offset: seed,
            preprocessing: self.preprocessing,
        };
        let cached = graphcache::shared().get(&key);
        tally.check(cached.is_some_and(|(g, _)| *g == graph.0), || {
            "set-up graph differs from the prepared-graph cache's".into()
        });
        let json = reports.iter().map(RunReport::to_json).collect();
        Ok(Reference { reports, json })
    }

    /// One untraced pass over every config; each report must repeat the
    /// reference bytes. Returns each config's host seconds.
    fn pass(exps: &[Experiment], reference: &Reference, tally: &mut Tally) -> Vec<f64> {
        exps.iter()
            .zip(&reference.json)
            .map(|(exp, want)| {
                let t = Instant::now();
                let got = exp.try_run().map(|r| r.verified && r.to_json() == *want);
                let secs = t.elapsed().as_secs_f64();
                tally.check(matches!(got, Ok(true)), || {
                    format!(
                        "{}: report differs from the warm pass: {got:?}",
                        exp.config_key()
                    )
                });
                secs
            })
            .collect()
    }

    /// End-to-end metrics, tracing off.
    pub fn run(&self, args: &Args) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        let (graph, setup) = self.setup(args.seed, None)?;
        let exps = self.experiments(args.seed)?;
        let reference = self.reference(&exps, &graph, args.seed, &mut out.tally)?;
        // runs[i]: every timed host seconds of config i.
        let mut runs = vec![Vec::new(); exps.len()];
        let start = Instant::now();
        while runs[0].len() < MIN_PASSES || start.elapsed() < args.seconds {
            let pass = Self::pass(&exps, &reference, &mut out.tally);
            runs.iter_mut().zip(pass).for_each(|(r, s)| r.push(s));
        }
        let totals = reference.totals();
        out.push("wall_s", runs.iter().map(|r| fastest(r)).sum(), "s");
        out.push("setup_s", median(&setup), "s");
        out.push("peak_rss_mib", peak_rss_mib(), "MiB");
        out.push("sim_cycles", totals.cycles as f64, "cycles");
        out.notes.push(format!(
            "{} timed passes; {} simulated accesses per pass",
            runs[0].len(),
            totals.accesses
        ));
        for (kernel, r) in KERNELS.iter().zip(&runs) {
            out.notes.push(format!(
                "{kernel}: fastest {:.3} s, median {:.3} s",
                fastest(r),
                median(r)
            ));
        }
        out.digest = reference.digest();
        Ok(out)
    }

    /// Per-layer metrics: untraced passes alternate with a replay of the
    /// same configs through each layer's public calls, inside spans.
    pub fn run_traced(&self, args: &Args) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        let trace = Trace::default();
        let (graph, _) = self.setup(args.seed, Some(&trace))?;
        let exps = self.experiments(args.seed)?;
        let reference = self.reference(&exps, &graph, args.seed, &mut out.tally)?;

        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut memo = (0, 0);
        let start = Instant::now();
        while traced.len() < MIN_PASSES || start.elapsed() < args.seconds {
            plain.push(Self::pass(&exps, &reference, &mut out.tally).iter().sum());
            // Trace ids 0..SETUP_ROUNDS are the set-up rounds.
            let pass = (SETUP_ROUNDS + traced.len()) as u64;
            let t = Instant::now();
            let root = trace.begin("bench.pass", pass, None);
            for (&kernel, report) in KERNELS.iter().zip(&reference.reports) {
                let replay = self.replay(kernel, &graph.0, &trace, pass, root)?;
                let mismatch = replay.mismatch(report);
                out.tally.check(mismatch.is_none(), || {
                    format!("traced replay of {kernel} diverged from Experiment::try_run in {mismatch:?}")
                });
                if traced.is_empty() {
                    memo.0 += replay.memo.0;
                    memo.1 += replay.memo.1;
                }
            }
            trace.end(root);
            traced.push(t.elapsed().as_secs_f64());
        }

        let phase = |name| median(&trace.per_trace_s(name));
        let layers = Layers {
            generate_s: phase("graph.generate"),
            reorder_s: phase("graph.reorder"),
            graphcache: graphcache::shared().stats(),
            condition_s: phase("physmem.condition"),
            boot_s: phase("os.boot"),
            sim: reference.totals(),
            memo,
            map_s: phase("workloads.map"),
            init_s: phase("workloads.init"),
            kernel_s: phase("workloads.kernel"),
            verify_s: phase("workloads.verify"),
            trace_overhead: median(&traced) / median(&plain),
            ..Layers::default()
        };
        layers.emit(&Probes::measure(args.seed)?, &mut out);
        out.notes.push(format!("{} traced passes", traced.len()));
        out.digest = reference.digest();
        let path = out_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        trace.write_jsonl(&path).map_err(|e| e.to_string())?;
        Ok(out)
    }

    /// Replay `Experiment::try_run` for one kernel through the public calls
    /// of `os`, `physmem` and `workloads`, with a span around each.
    fn replay(
        &self,
        kernel: Kernel,
        csr: &Csr,
        trace: &Trace,
        pass: u64,
        parent: usize,
    ) -> Result<Replay, String> {
        let at = Some(parent);
        // The experiment's node sizing: three working sets plus 64 MiB.
        let (vertex_bytes, edge_bytes, _) = csr.array_bytes();
        let props = kernel.property_names().len() as u64;
        let wss = vertex_bytes + edge_bytes + props * u64::from(csr.num_vertices()) * 8;
        let node_mb = (wss * 3 / (1 << 20) + 64).max(64);
        let mut sys = trace.span("os.boot", pass, at, || {
            let mut spec = SystemSpec::scaled_with_order(node_mb, HUGE_ORDER);
            spec.file_placement = FilePlacement::TmpfsRemote;
            spec.thp.mode = match self.policy {
                PagePolicy::ThpSystemWide => ThpMode::Always,
                _ => ThpMode::Never,
            };
            let mut sys = System::new(spec);
            if let Some(g) = self.governor {
                sys.enable_governor(g);
            }
            sys
        });
        let mut condition = || self.condition.try_apply(&mut sys, wss);
        let _artifacts = match self.condition.surplus {
            Surplus::Unbounded => condition(),
            _ => trace.span("physmem.condition", pass, at, condition),
        }
        .map_err(|e| e.to_string())?;
        let mut arrays = trace.span("workloads.map", pass, at, || {
            GraphArrays::map_with(&mut sys, csr, kernel, false)
        });
        let init_cycles = trace.span("workloads.init", pass, at, || {
            let cp = sys.checkpoint();
            arrays.initialize(&mut sys, AllocOrder::Natural);
            sys.since(&cp).0
        });
        let root = default_root(csr);
        let (output, (compute_cycles, perf, _)) = trace.span("workloads.kernel", pass, at, || {
            let cp = sys.checkpoint();
            let output = kernel.run_simulated(&mut sys, &mut arrays, root);
            (output, sys.since(&cp))
        });
        let verified = trace.span("workloads.verify", pass, at, || {
            output == kernel.run_native(csr, root)
        });
        Ok(Replay {
            init_cycles,
            compute_cycles,
            perf,
            os: *sys.os_stats(),
            governor: sys.governor_stats(),
            memo: sys.memo_stats(),
            verified,
        })
    }
}
