//! Page-run fast-path benchmark: the end-to-end wall-clock effect of
//! translation memoization (one MMU probe per page run instead of one per
//! element) on the `fig01_thp_speedup` workload, plus raw stream and
//! gather throughput.
//!
//! Writes `BENCH_fastpath.json` into the workspace root, recording the
//! before/after pair against the pre-memoization wall time committed in
//! `BENCH_hotpath.json` (28.63 s at `GRAPHMEM_SCALE=small` on the
//! development host). `run_benches.sh` invokes this from the repo root;
//! `--smoke` cuts the grid to one configuration for CI, and
//! `ci_bench_gate.sh` compares the smoke throughput against the committed
//! baseline. Override the reference wall time with
//! `GRAPHMEM_BASELINE_WALL_S` when re-baselining on different hardware.

use std::time::Instant;

use graphmem_bench::{all_configs, scale_for};
use graphmem_core::{Experiment, MemoryCondition, PagePolicy, Surplus};
use graphmem_os::{System, SystemSpec};
use graphmem_telemetry::json::JsonObject;

/// Run the fig01 grid (4 runs per kernel × dataset config); returns
/// (wall seconds, simulated compute-phase accesses).
fn fig01_grid(smoke: bool) -> (f64, u64) {
    let pressure = MemoryCondition::pressured(Surplus::FractionOfWss(0.12));
    let configs = if smoke {
        all_configs().into_iter().take(1).collect()
    } else {
        all_configs()
    };
    let mut accesses = 0u64;
    let start = Instant::now();
    for (kernel, dataset) in configs {
        let proto = Experiment::builder(dataset, kernel)
            .scale(scale_for(dataset))
            .build()
            .expect("valid config");
        for run in [
            proto.clone().policy(PagePolicy::BaseOnly),
            proto.clone().policy(PagePolicy::ThpSystemWide),
            proto
                .clone()
                .policy(PagePolicy::BaseOnly)
                .condition(pressure),
            proto
                .clone()
                .policy(PagePolicy::ThpSystemWide)
                .condition(pressure),
        ] {
            let r = run.run();
            assert!(r.verified, "benchmark run produced a wrong result");
            accesses += r.perf.accesses;
        }
    }
    (start.elapsed().as_secs_f64(), accesses)
}

/// Raw sequential-stream throughput (accesses per host second): the
/// page-run memo's best case, long same-page runs at stride 8.
fn stream_rate(passes: u64) -> f64 {
    let mut sys = System::new(SystemSpec::scaled_demo());
    let base = sys.mmap(32 * 1024, "stream");
    sys.populate(base, 32 * 1024);
    let per_pass = 4096u64;
    let start = Instant::now();
    for _ in 0..passes {
        sys.access_run(base, 8, per_pass, false);
    }
    std::hint::black_box(sys.clock());
    passes as f64 * per_pass as f64 / start.elapsed().as_secs_f64()
}

/// Gather throughput (accesses per host second): irregular indexed reads
/// through the one-entry translation cursor, the memo's worst case.
fn gather_rate(passes: u64) -> f64 {
    let mut sys = System::new(SystemSpec::scaled_demo());
    let region = 256 * 1024u64;
    let base = sys.mmap(region, "gather");
    sys.populate(base, region);
    // Deterministic pseudo-random index stream (xorshift).
    let mut indices = Vec::with_capacity(2048);
    let mut x = 0x9e3779b97f4a7c15u64;
    for _ in 0..2048 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        indices.push((x % (region / 8)) as u32);
    }
    let start = Instant::now();
    for _ in 0..passes {
        sys.access_gather(base, 8, &indices, false);
    }
    std::hint::black_box(sys.clock());
    passes as f64 * indices.len() as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = std::env::var("GRAPHMEM_SCALE").unwrap_or_else(|_| "paper".into());

    println!(
        "== bench_fastpath (scale {scale}{}) ==",
        if smoke { ", smoke" } else { "" }
    );
    let stream_passes = if smoke { 200 } else { 2000 };
    let fast_stream = stream_rate(stream_passes);
    let fast_gather = gather_rate(stream_passes / 4);
    println!("hit-stream fastpath: {fast_stream:>12.0} accesses/s");
    println!("gather fastpath:     {fast_gather:>12.0} accesses/s");

    let (fast_s, fast_acc) = fig01_grid(smoke);
    // Pre-optimization reference: the access pipeline *before* page-run
    // memoization ran this grid in 28.63 s at `GRAPHMEM_SCALE=small` on the
    // development host (`fig01_wall_s_batched` in the committed
    // BENCH_hotpath.json). Override with `GRAPHMEM_BASELINE_WALL_S` when
    // re-baselining on different hardware.
    let override_s: Option<f64> = std::env::var("GRAPHMEM_BASELINE_WALL_S")
        .ok()
        .and_then(|v| v.parse().ok());
    let baseline_source = if override_s.is_some() {
        "GRAPHMEM_BASELINE_WALL_S (re-measured seed build, same host session)"
    } else {
        "committed BENCH_hotpath.json (historical development-host record)"
    };
    let baseline_s = override_s.unwrap_or(28.628294743);
    let speedup = baseline_s / fast_s;
    println!("fig01 grid before:   {baseline_s:>8.2} s  (pre-memoization)");
    println!("fig01 grid fastpath: {fast_s:>8.2} s  ({speedup:.2}x vs pre-PR build)");
    println!(
        "fig01 grid fastpath: {:>12.0} simulated accesses/s",
        fast_acc as f64 / fast_s
    );

    let mut o = JsonObject::new();
    o.field_str("bench", "fastpath");
    o.field_str("scale", &scale);
    o.field_bool("smoke", smoke);
    o.field_f64("fig01_wall_s_before_pr", baseline_s);
    o.field_str("baseline_source", baseline_source);
    o.field_f64("fig01_wall_s_fastpath", fast_s);
    o.field_f64("fig01_speedup_vs_before_pr", speedup);
    o.field_u64("fig01_sim_accesses", fast_acc);
    o.field_f64("fig01_accesses_per_s_fastpath", fast_acc as f64 / fast_s);
    o.field_f64("hit_stream_accesses_per_s_fastpath", fast_stream);
    o.field_f64("gather_accesses_per_s_fastpath", fast_gather);
    let json = o.finish();
    // `cargo bench` runs with cwd = crates/bench; anchor the report at the
    // workspace root so run_benches.sh and ci_bench_gate.sh always find it.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fastpath.json");
    std::fs::write(out, format!("{json}\n")).expect("write BENCH_fastpath.json");
    println!("wrote {out}");
}
