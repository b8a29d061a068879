//! Observability substrate for the graphmem simulator.
//!
//! Three pieces, all deterministic and all zero-cost when disabled:
//!
//! 1. **Event tracing** ([`Tracer`], [`Event`], [`EventSink`]): typed,
//!    cycle-stamped events emitted from the hardware model (TLB fills and
//!    evictions, page walks), the OS model (page faults, khugepaged scans,
//!    promotions/demotions, compaction, reclaim, swap), and the physical
//!    memory model (buddy splits and merges). Events land in a bounded ring
//!    buffer and/or stream to a pluggable sink such as a JSONL file.
//! 2. **Epoch sampling** ([`EpochSampler`], [`MetricsSample`],
//!    [`MemStateSample`]): a cumulative metrics snapshot taken every N
//!    simulated cycles, plus a memory-state snapshot (buddyinfo,
//!    fragmentation, per-region coverage) when attribution is on. Both
//!    form time series in one generic container, [`Series`]
//!    ([`MetricsSeries`], [`MemStateSeries`]), which owns the ordering,
//!    the closing end-of-run sample and the JSON and CSV forms; the
//!    sample type supplies only its header field and CSV layout
//!    ([`SeriesSample`]). Per-epoch deltas (miss rates, faults/cycle) are
//!    derived from adjacent cumulative samples, so a series always sums
//!    back to the final aggregate counters.
//! 3. **Exporters**: JSONL for events, CSV for the time series, plus a tiny
//!    dependency-free JSON writer ([`json`]) shared with
//!    `RunReport::to_json`. Every counter set is declared once through
//!    [`counters!`], which derives its delta and exact JSON codec.
//!
//! The handle type [`Tracer`] is a cheap clone (`Option<Arc<..>>`): a
//! disabled tracer is `None`, so instrumented hot paths pay one branch and no
//! allocation. Emitting an event never touches the simulated clock or any
//! performance counter — observation cannot perturb the simulation.

#![warn(missing_docs)]

pub mod counters;
pub mod event;
pub mod histogram;
pub mod json;
pub mod memstate;
pub mod metrics;
pub mod series;
pub mod trace;

pub use counters::Counters;
pub use event::{DemotionReason, Event, EventKind, EventMask, FaultOutcome, ReclaimKind, TlbLevel};
pub use histogram::Histogram;
pub use memstate::{MemStateSample, MemStateSeries};
pub use metrics::{EpochSampler, MetricsSample, MetricsSeries};
pub use series::{Series, SeriesSample};
pub use trace::{EventSink, JsonlSink, TraceConfig, TraceStats, Tracer};
