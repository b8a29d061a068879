//! # graphmem-bench — the figure/table reproduction harness
//!
//! Shared plumbing for the per-figure benchmark targets under `benches/`.
//! Each target is a `harness = false` bench that prints the same rows or
//! series the paper's corresponding figure/table reports, and also writes
//! a CSV under the workspace's `target/experiments/` (or
//! `$CARGO_TARGET_DIR/experiments/`).
//!
//! Run one figure:
//!
//! ```sh
//! cargo bench -p graphmem-bench --bench fig07_pressure_alloc_order
//! ```
//!
//! or everything (`cargo bench --workspace`). Graph sizes follow
//! `GRAPHMEM_SCALE`:
//!
//! * `paper` *(default)* — the scaled-experiment sizes of `DESIGN.md` §5
//!   (2^18-vertex graphs; the full suite takes tens of minutes),
//! * `small` — two scale steps down (a few minutes),
//! * `tiny` — four steps down (smoke test; the TLB-thrashing regime is
//!   only partially present).

#![warn(missing_docs)]

use std::ffi::OsString;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use graphmem_graph::Dataset;
use graphmem_workloads::Kernel;

/// Scale (log2 vertices) to run `dataset` at, honoring `GRAPHMEM_SCALE`.
pub fn scale_for(dataset: Dataset) -> u8 {
    let base = dataset.default_scale();
    match std::env::var("GRAPHMEM_SCALE").as_deref() {
        Ok("tiny") => base.saturating_sub(4),
        Ok("small") => base.saturating_sub(2),
        _ => base,
    }
}

/// The paper's 12 application/dataset configurations (Table 2).
pub fn all_configs() -> Vec<(Kernel, Dataset)> {
    let mut v = Vec::new();
    for kernel in Kernel::ALL {
        for dataset in Dataset::ALL {
            v.push((kernel, dataset));
        }
    }
    v
}

/// A figure/table being regenerated: prints rows as they arrive and writes
/// a CSV at the end.
#[derive(Debug)]
pub struct Figure {
    name: &'static str,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Figure {
    /// Start a figure with the given column headers.
    pub fn new(name: &'static str, title: &str, headers: &[&str]) -> Self {
        println!("\n################################################################");
        println!("# {name}: {title}");
        println!("################################################################");
        println!("{}", headers.join(","));
        Figure {
            name,
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Add (and immediately print) one row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        println!("{}", cells.join(","));
        self.rows.push(cells);
    }

    /// Free-form note printed below the table (and stored as a CSV
    /// comment).
    pub fn note(&self, text: &str) {
        println!("# {text}");
    }

    /// Write the CSV under `target/experiments/<name>.csv`.
    pub fn finish(self) {
        let dir = out_dir();
        let path = dir.join(format!("{}.csv", self.name));
        let mut f = match fs::File::create(&path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("warning: cannot write {}: {e}", path.display());
                return;
            }
        };
        let _ = writeln!(f, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(f, "{}", row.join(","));
        }
        println!("# wrote {}", path.display());
    }
}

/// The workspace root. `cargo bench` runs each bench with the package
/// directory as its working directory, so relative paths start here.
const WORKSPACE_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

fn out_dir() -> PathBuf {
    let dir = experiments_dir(std::env::var_os("CARGO_TARGET_DIR"));
    let _ = fs::create_dir_all(&dir);
    fs::canonicalize(&dir).unwrap_or(dir)
}

/// `<target>/experiments`, where `<target>` is `target_dir`
/// (`CARGO_TARGET_DIR`) or `target`; a relative one is taken from the
/// workspace root.
fn experiments_dir(target_dir: Option<OsString>) -> PathBuf {
    let target = target_dir.unwrap_or_else(|| "target".into());
    Path::new(WORKSPACE_ROOT).join(target).join("experiments")
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_configs() {
        assert_eq!(all_configs().len(), 12);
    }

    #[test]
    fn scale_env_controls_size() {
        // Not setting the env var here (tests run in parallel); just check
        // the default mapping.
        assert!(scale_for(Dataset::Kron25) >= 14);
    }

    #[test]
    fn experiments_dir_is_anchored_at_the_workspace_root() {
        let root = Path::new(WORKSPACE_ROOT);
        assert!(root.join("Cargo.lock").is_file());
        assert_eq!(
            experiments_dir(None),
            root.join("target").join("experiments")
        );
        assert_eq!(
            experiments_dir(Some("target-bench".into())),
            root.join("target-bench").join("experiments")
        );
        let absolute = std::env::temp_dir().join("graphmem-target");
        assert_eq!(
            experiments_dir(Some(absolute.clone().into())),
            absolute.join("experiments")
        );
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut f = Figure::new("t", "t", &["a", "b"]);
        f.row(vec!["1".into()]);
    }
}
