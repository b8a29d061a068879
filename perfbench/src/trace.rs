//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (nothing inside the program is instrumented), kept in memory, and
//! written out as JSON Lines when the run ends. A span names its parent
//! span, and every span of one pass or one request shares a trace id.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use graphmem_telemetry::json::JsonObject;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    trace: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Shared, thread-safe span store.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Trace {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Open a span; close it with [`Trace::end`]. Returns its id.
    pub fn begin(&self, name: &'static str, trace: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans();
        spans.push(Span {
            name,
            trace,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        spans.len() - 1
    }

    pub fn end(&self, id: usize) {
        let end_ns = self.now_ns();
        if let Some(span) = self.spans().get_mut(id) {
            span.end_ns = end_ns;
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        trace: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, trace, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Seconds spent in spans named `name`, summed per trace id, in trace
    /// order (one value per trace that has such a span).
    pub fn per_trace_s(&self, name: &str) -> Vec<f64> {
        let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans().iter().filter(|s| s.name == name) {
            *sums.entry(s.trace).or_default() += (s.end_ns - s.start_ns) as f64 * 1e-9;
        }
        sums.into_values().collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            let mut o = JsonObject::new();
            o.field_u64("id", id as u64);
            if let Some(p) = s.parent {
                o.field_u64("parent", p as u64);
            }
            o.field_u64("trace", s.trace);
            o.field_str("name", s.name);
            o.field_u64("start_ns", s.start_ns);
            o.field_u64("end_ns", s.end_ns);
            writeln!(out, "{}", o.finish())?;
        }
        out.flush()
    }
}
