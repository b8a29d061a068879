//! Layer probes of the traced run: `vm` stream vs gather, `os` base vs
//! huge demand fault, and `ResultStore` put/get. Each probe repeats its
//! measurement and reports the median. Only the default access engine is
//! used.

use std::time::Instant;

use graphmem_os::{System, SystemSpec, ThpMode};
use graphmem_server::store::ResultStore;

use crate::{median, out_dir, SplitMix};

const ROUNDS: usize = 7;

/// Probe results, in the units their metric names carry.
#[derive(Debug, Default, Clone, Copy)]
pub struct Probes {
    pub gather_ns: f64,
    pub stream_ns: f64,
    pub fault_base_us: f64,
    pub fault_huge_us: f64,
    pub store_put_ms: f64,
    pub store_get_us: f64,
}

impl Probes {
    pub fn measure(seed: u64) -> Result<Probes, String> {
        let (store_put_ms, store_get_us) = store_put_get()?;
        Ok(Probes {
            gather_ns: gather_ns(seed),
            stream_ns: stream_ns(),
            fault_base_us: fault_us(ThpMode::Never),
            fault_huge_us: fault_us(ThpMode::Always),
            store_put_ms,
            store_get_us,
        })
    }
}

/// A populated 4 KiB-page region of `bytes` on a fresh scaled system.
fn populated(bytes: u64) -> (System, graphmem_os::VirtAddr) {
    let mut sys = System::new(SystemSpec::scaled(64));
    let base = sys.mmap(bytes, "probe");
    sys.populate(base, bytes);
    (sys, base)
}

/// Host ns per simulated access for random 8-byte gathers over 16 MiB of
/// 4 KiB pages — 32x the scaled STLB reach, so nearly every access takes
/// the translation-miss path.
fn gather_ns(seed: u64) -> f64 {
    let bytes = 16u64 << 20;
    let (mut sys, base) = populated(bytes);
    let mut rng = SplitMix(seed ^ 0x6A7E);
    let indices: Vec<u32> = (0..1 << 18).map(|_| rng.below(bytes / 8) as u32).collect();
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            sys.access_gather(base, 8, &indices, false);
            t.elapsed().as_nanos() as f64 / indices.len() as f64
        })
        .collect();
    median(&samples)
}

/// Host ns per simulated access for a sequential stride-8 stream over
/// 1 MiB: the page-run memo's hit path.
fn stream_ns() -> f64 {
    let bytes = 1u64 << 20;
    let (mut sys, base) = populated(bytes);
    let count = bytes / 8;
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..8 {
                sys.access_run(base, 8, count, false);
            }
            t.elapsed().as_nanos() as f64 / (8 * count) as f64
        })
        .collect();
    median(&samples)
}

/// Host µs per demand fault when `populate` first-touches a fresh 32 MiB
/// `mmap`, with THP off (base faults) or always on (huge faults).
fn fault_us(mode: ThpMode) -> f64 {
    let bytes = 32u64 << 20;
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let mut spec = SystemSpec::scaled(128);
            spec.thp.mode = mode;
            let mut sys = System::new(spec);
            let base = sys.mmap(bytes, "probe");
            let before = sys.os_stats().faults;
            let t = Instant::now();
            sys.populate(base, bytes);
            let faults = (sys.os_stats().faults - before).max(1);
            t.elapsed().as_nanos() as f64 / 1e3 / faults as f64
        })
        .collect();
    median(&samples)
}

/// Median ms per durable `put` (fsync on every record) and µs per `get`
/// of a 2 KiB record, on a fresh store directory that is removed after.
fn store_put_get() -> Result<(f64, f64), String> {
    let dir = out_dir().join(format!("store-probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(Some(dir.clone()), 256).map_err(|e| e.to_string())?;
    let body = format!("{{\"probe\":\"{}\"}}", "x".repeat(2048));
    let hashes: Vec<String> = (0..32u64).map(|i| format!("{:016x}", i * 0x9E37)).collect();
    let mut puts = Vec::new();
    for h in &hashes {
        let t = Instant::now();
        store.put(h, &body).map_err(|e| e.to_string())?;
        puts.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let mut gets = Vec::new();
    for h in &hashes {
        let t = Instant::now();
        let found = store.get(h);
        gets.push(t.elapsed().as_secs_f64() * 1e6);
        if found.as_deref() != Some(body.as_str()) {
            return Err(format!("result store probe lost record {h}"));
        }
    }
    drop(store);
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok((median(&puts), median(&gets)))
}
