//! The graphmem benchmark: one workload per process, end-to-end metrics
//! from an untraced run, per-layer metrics from a separate traced run.
//!
//! ```text
//! graphmem-perfbench --workload <walk-4k|frag-governed|service-mixed>
//!                    --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines go to standard output first; the last line is one
//! JSON object `{"correct","attempted","failed","metrics"}`. Scratch files
//! (the traced run's span dump, temporary result stores) live under
//! `.bench_out/` in the working directory. See `perfbench/README.md`.

mod layers;
mod probes;
mod service;
mod sim;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use graphmem_telemetry::json::JsonObject;

/// Command-line arguments, all required.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value '{value}' for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())?),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: Duration::from_secs_f64(seconds),
            trace: match trace.ok_or("--trace is required")? {
                0 => false,
                1 => true,
                t => return Err(format!("--trace must be 0 or 1, got {t}")),
            },
        })
    }
}

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Checked operations and how many of them failed.
    pub tally: Tally,
    /// FNV-1a digest of the run's report bytes, for bit-identity checks
    /// between two builds.
    pub digest: String,
    /// Extra human-readable lines (sample counts, rates).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

/// Attempted/failed operation counts; every failure is also explained on
/// standard error.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation, failing it (with `why`) unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", why());
        }
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile `p` in `0..=1` (0 for an empty sample).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// FNV-1a 64-bit over a sequence of byte strings, as fixed-width hex.
pub fn fnv1a<'a>(parts: impl IntoIterator<Item = &'a str>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// SplitMix64: the benchmark's only source of randomness, so every input
/// follows from `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Scratch directory for this process's files, inside the working
/// directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: graphmem-perfbench --workload <walk-4k|frag-governed|service-mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir().display());
        return ExitCode::from(1);
    }
    let result = match (
        args.workload.as_str(),
        sim::SimWorkload::named(&args.workload),
    ) {
        (_, Some(w)) if args.trace => w.run_traced(&args),
        (_, Some(w)) => w.run(&args),
        ("service-mixed", None) if args.trace => service::run_traced(&args),
        ("service-mixed", None) => service::run(&args),
        (other, None) => Err(format!("unknown workload '{other}'")),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };

    let tally = outcome.tally;
    println!(
        "# workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut metrics = JsonObject::new();
    for m in &outcome.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let mut o = JsonObject::new();
        o.field_f64("value", value);
        o.field_str("unit", m.unit);
        metrics.field_raw(m.name, &o.finish());
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!(
        "# failed_frac {} ({} of {} operations)",
        ratio(tally.failed, tally.attempted),
        tally.failed,
        tally.attempted
    );
    println!("# report digest {}", outcome.digest);
    let mut o = JsonObject::new();
    o.field_bool("correct", tally.failed == 0 && tally.attempted > 0);
    o.field_u64("attempted", tally.attempted.max(1));
    o.field_u64("failed", tally.failed);
    o.field_raw("metrics", &metrics.finish());
    println!("{}", o.finish());
    ExitCode::SUCCESS
}
