//! Quickstart: the paper's headline result in one page of code.
//!
//! Runs BFS on a Kronecker-like power-law graph under four page-size
//! strategies on a memory-pressured machine, and prints the comparison:
//! the 4 KiB baseline, Linux's system-wide THP, and the paper's recipe —
//! degree-based grouping plus selective THP on a sliver of the property
//! array — which recovers most of the THP speedup with a few percent of
//! the huge-page memory.
//!
//! ```sh
//! cargo run --release --bin quickstart
//! ```
//!
//! Every figure of the paper, with its claims checked, is
//! `graphmem claims` (see the README).

use graphmem_core::prelude::*;

/// Graph scale (log2 vertices): two steps below the figures' default, so
/// the four runs finish in seconds.
const SCALE: u8 = 16;

fn main() {
    // A realistic machine: moderate pressure (~+1 GB-equivalent of slack).
    let pressured = MemoryCondition::pressured(Surplus::FractionOfWss(0.12));
    let proto = Experiment::builder(Dataset::Kron25, Kernel::Bfs)
        .scale(SCALE)
        .condition(pressured)
        .build()
        .expect("valid config");

    println!(
        "graphmem quickstart: BFS on {} (scale {SCALE}), moderate memory pressure",
        Dataset::Kron25
    );
    println!("(simulating… each configuration runs the full kernel through the MMU model)");

    let baseline = proto.clone().policy(PagePolicy::BaseOnly).run();
    let thp = proto.clone().policy(PagePolicy::ThpSystemWide).run();
    let ideal = Experiment::builder(Dataset::Kron25, Kernel::Bfs)
        .scale(SCALE)
        .policy(PagePolicy::ThpSystemWide)
        .build()
        .expect("valid config")
        .run(); // fresh boot, unbounded huge pages
    let selective = proto
        .clone()
        .preprocessing(Preprocessing::Dbg)
        .policy(PagePolicy::SelectiveProperty { fraction: 0.2 })
        .run();

    println!("\n== BFS / kron under memory pressure ==");
    for (name, r) in [
        ("4KB pages (baseline)", &baseline),
        ("Linux THP (system-wide)", &thp),
        ("THP unbounded (fresh boot)", &ideal),
        ("DBG + selective THP (20%)", &selective),
    ] {
        println!("{name:<28} {:>5.2}x  {r}", r.speedup_over(&baseline));
    }

    println!(
        "\nselective THP reaches {:.0}% of unbounded-THP performance using huge pages for only {:.2}% of memory",
        100.0 * ideal.compute_cycles as f64 / selective.compute_cycles as f64,
        selective.huge_memory_fraction() * 100.0
    );
}
