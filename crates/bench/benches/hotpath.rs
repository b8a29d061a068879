//! Criterion micro benches for the simulated-access hot path on the three
//! regimes that bracket real kernel behaviour — TLB-hit-dominated streams,
//! TLB-miss-dominated strides, and demand-faulting first touches.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use graphmem_os::{System, SystemSpec, VirtAddr};

/// One system with a populated region sized for the stream under test.
fn prepped(bytes: u64) -> (System, VirtAddr) {
    let mut sys = System::new(SystemSpec::scaled_demo());
    let base = sys.mmap(bytes, "stream");
    sys.populate(base, bytes);
    (sys, base)
}

/// Sequential u64 reads over 32 KiB: base pages stay resident in the L1
/// DTLB, so nearly every access takes the hit path.
fn hit_dominated(c: &mut Criterion) {
    let (mut sys, base) = prepped(32 * 1024);
    c.bench_function("hit_dominated", |b| {
        b.iter(|| {
            sys.access_run(base, 8, 4096, false);
            sys.clock()
        })
    });
}

/// Page-strided reads over 16 MiB: every access lands on a new base page,
/// thrashing the DTLB and exercising the STLB/walk slow path.
fn miss_dominated(c: &mut Criterion) {
    const BYTES: u64 = 16 * 1024 * 1024;
    let (mut sys, base) = prepped(BYTES);
    c.bench_function("miss_dominated", |b| {
        b.iter(|| {
            sys.access_run(base, 4096, BYTES / 4096, false);
            sys.clock()
        })
    });
}

/// First touches of a fresh 1 MiB mapping: every page demand-faults, so
/// the fault-retry frame dominates.
fn faulting(c: &mut Criterion) {
    c.bench_function("faulting", |b| {
        b.iter_batched(
            || {
                let mut sys = System::new(SystemSpec::scaled_demo());
                let base = sys.mmap(1 << 20, "fresh");
                (sys, base)
            },
            |(mut sys, base)| {
                sys.access_run(base, 4096, 256, true);
                sys.clock()
            },
            BatchSize::SmallInput,
        )
    });
}

/// Smoke runs (CI) shrink the sample count; full runs use the default.
fn config() -> Criterion {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var_os("GRAPHMEM_BENCH_SMOKE").is_some();
    if smoke {
        Criterion::default().sample_size(3)
    } else {
        Criterion::default()
    }
}

criterion_group!(
    name = benches;
    config = config();
    targets = hit_dominated, miss_dominated, faulting
);
criterion_main!(benches);
