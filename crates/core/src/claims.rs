//! The paper's results as executable claims.
//!
//! Every figure and table the reproduction regenerates is one [`Claim`]
//! in [`REGISTRY`]: a paper reference, the grid of [`Experiment`]s it
//! needs at a given [`Scale`], and an `evaluate` function that projects
//! the grid's reports into the figure's CSV [`Table`]s and judges the
//! paper's statement against them. [`run`] takes the union of the
//! selected grids, runs each distinct `config_key` once through
//! [`run_supervised`], and hands every claim its own reports in grid
//! order.
//!
//! The System-level tables (Table 1, Table 2, Fig. 4, Fig. 6 and the
//! utilization-demotion study) drive the simulated machine directly, so
//! their grids are empty and `evaluate` does the work.
//!
//! ```
//! use graphmem_core::claims::{self, Scale};
//!
//! let table1 = claims::find("table1").expect("registered");
//! let outcome = claims::run(&[table1], Scale::Tiny, &Default::default()).unwrap();
//! assert!(outcome.passed());
//! assert_eq!(outcome.claims[0].tables[0].name, "table1_system_params");
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use graphmem_graph::Dataset;
use graphmem_workloads::Kernel;

use crate::error::GraphmemError;
use crate::experiment::Experiment;
use crate::report::RunReport;
use crate::supervisor::{run_supervised, SupervisorConfig};

/// How large the claims' graphs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Scale-15 graphs on 64 KiB huge pages (huge order 4): each graph
    /// still spans several huge pages, so the huge-page regime shows in
    /// seconds.
    Tiny,
    /// Two scale steps below `Paper` on the default 256 KiB huge pages.
    Small,
    /// The scaled-experiment sizes of DESIGN.md §5 (2^18-vertex graphs).
    Paper,
}

impl Scale {
    /// Every scale, smallest first.
    pub const ALL: [Scale; 3] = [Scale::Tiny, Scale::Small, Scale::Paper];

    /// Parse `tiny`, `small` or `paper`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted tokens.
    pub fn from_token(token: &str) -> Result<Scale, String> {
        Scale::ALL
            .into_iter()
            .find(|s| s.token() == token)
            .ok_or_else(|| format!("scale must be tiny|small|paper, got '{token}'"))
    }

    /// The canonical token.
    pub fn token(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }

    /// The graph scale (log2 vertices) `dataset` runs at.
    pub fn graph_scale(self, dataset: Dataset) -> u8 {
        match self {
            Scale::Tiny => 15,
            Scale::Small => dataset.default_scale() - 2,
            Scale::Paper => dataset.default_scale(),
        }
    }

    /// A `dataset` × `kernel` experiment at this scale, every other knob
    /// at its default.
    pub fn experiment(self, dataset: Dataset, kernel: Kernel) -> Experiment {
        let e = Experiment::builder(dataset, kernel).scale(self.graph_scale(dataset));
        match self {
            Scale::Tiny => e.huge_order(4),
            Scale::Small | Scale::Paper => e,
        }
    }

    /// The "moderate pressure" surplus, as a fraction of WSS: the
    /// paper's +0.5 GB. On 64 KiB huge pages the page-table deposits tax
    /// about 12% of WSS, so the same operating point sits higher.
    pub fn moderate_surplus(self) -> f64 {
        match self {
            Scale::Tiny => 0.2,
            Scale::Small | Scale::Paper => 0.12,
        }
    }

    /// The smallest selective-THP fraction that covers whole huge pages:
    /// at `Tiny` the property array spans only 4 huge pages, so 20% of it
    /// is less than one.
    pub fn low_selectivity(self) -> f64 {
        match self {
            Scale::Tiny => 0.5,
            Scale::Small | Scale::Paper => 0.2,
        }
    }
}

/// One CSV the reproduction writes: a name (the file stem), a header and
/// rows of preformatted cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// File stem, e.g. `fig01_thp_speedup`.
    pub name: &'static str,
    /// The header line: column names joined by commas.
    pub header: &'static str,
    /// Rows, each as long as `header`.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table.
    pub fn new(name: &'static str, header: &'static str) -> Table {
        Table {
            name,
            header,
            rows: Vec::new(),
        }
    }

    /// Append one row.
    ///
    /// # Panics
    ///
    /// Panics if the row's arity differs from the header's.
    pub fn row(&mut self, cells: Vec<String>) {
        let arity = self.header.split(',').count();
        assert_eq!(cells.len(), arity, "row arity mismatch");
        self.rows.push(cells);
    }

    /// The table as CSV text: the header line, then one line per row.
    pub fn to_csv(&self) -> String {
        let mut out = format!("{}\n", self.header);
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// What a claim sees: its own grid, at one scale, with a report per grid
/// slot (same order).
#[derive(Debug)]
pub struct Evidence<'a> {
    /// The scale the grid ran at.
    pub scale: Scale,
    /// The claim's grid, as built.
    pub experiments: &'a [Experiment],
    /// One report per experiment.
    pub reports: &'a [RunReport],
}

/// What `evaluate` found: the projected tables and every predicate that
/// failed, as a message naming the row and the paper's threshold.
#[derive(Debug, Default)]
pub struct Findings {
    /// The claim's CSV tables.
    pub tables: Vec<Table>,
    /// Failed predicates (empty when the claim holds).
    pub failures: Vec<String>,
}

/// Record a failure on a [`Findings`] unless `$ok`; the remaining
/// arguments are `format!`'s, evaluated only on failure.
macro_rules! check {
    ($findings:expr, $ok:expr, $($message:tt)+) => {{
        let ok: bool = $ok;
        if !ok {
            $findings.failures.push(format!($($message)+));
        }
    }};
}

mod registry;

pub use registry::REGISTRY;

/// A paper result as an executable claim.
#[derive(Debug)]
pub struct Claim {
    /// Short id, e.g. `fig01` (the `--only` token).
    pub id: &'static str,
    /// Where the paper states it, e.g. `Fig. 1` or `§5.1.2`.
    pub paper: &'static str,
    /// The statement judged, with the paper's thresholds.
    pub statement: &'static str,
    /// The scales the predicate is judged at; at the others the tables
    /// are still written but the claim is reported as not judged.
    pub judged_at: &'static [Scale],
    /// The experiments the claim needs at a scale (empty for the
    /// System-level tables).
    pub grid: fn(Scale) -> Vec<Experiment>,
    /// Project the reports into tables and judge the statement.
    pub evaluate: fn(&Evidence<'_>) -> Findings,
}

/// Look a claim up by id.
pub fn find(id: &str) -> Option<&'static Claim> {
    REGISTRY.iter().find(|c| c.id == id)
}

/// How a claim came out.
#[derive(Debug)]
pub enum Status {
    /// Every predicate held.
    Holds,
    /// Some predicates failed (the messages say which).
    Fails(Vec<String>),
    /// The scale is outside [`Claim::judged_at`]; tables only.
    NotJudged,
    /// An experiment in the claim's grid failed, so nothing was judged.
    Broken {
        /// The failing experiment's `config_hash`.
        config_hash: String,
        /// Its final error.
        error: Arc<GraphmemError>,
    },
}

impl Status {
    /// Whether this outcome fails the run.
    pub fn is_failure(&self) -> bool {
        matches!(self, Status::Fails(_) | Status::Broken { .. })
    }
}

/// One claim's outcome.
#[derive(Debug)]
pub struct ClaimOutcome {
    /// The claim.
    pub claim: &'static Claim,
    /// Whether it held.
    pub status: Status,
    /// Its tables (empty when [`Status::Broken`]).
    pub tables: Vec<Table>,
}

/// Everything a claims run produced.
#[derive(Debug)]
pub struct ClaimsOutcome {
    /// Per-claim outcomes, in selection order.
    pub claims: Vec<ClaimOutcome>,
    /// Experiments across all selected grids, duplicates included.
    pub experiments: usize,
    /// Distinct `config_key`s among them: the experiments actually run.
    pub distinct: usize,
}

impl ClaimsOutcome {
    /// Whether no judged claim failed.
    pub fn passed(&self) -> bool {
        !self.claims.iter().any(|c| c.status.is_failure())
    }
}

/// Run `claims` at `scale`: the union of their grids, deduplicated by
/// `config_key`, runs once under `config` (workers, cancel flag, faults;
/// fault indices address the deduplicated grid), then each claim is
/// evaluated on its own reports.
///
/// # Errors
///
/// Returns an error only when supervision itself fails (see
/// [`run_supervised`]); a failing experiment makes the claims that use
/// it [`Status::Broken`].
pub fn run(
    claims: &[&'static Claim],
    scale: Scale,
    config: &SupervisorConfig,
) -> Result<ClaimsOutcome, GraphmemError> {
    let grids: Vec<Vec<Experiment>> = claims.iter().map(|c| (c.grid)(scale)).collect();
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut distinct: Vec<Experiment> = Vec::new();
    let slots: Vec<Vec<usize>> = grids
        .iter()
        .map(|grid| {
            grid.iter()
                .map(|e| {
                    *index.entry(e.config_key()).or_insert_with(|| {
                        distinct.push(e.clone());
                        distinct.len() - 1
                    })
                })
                .collect()
        })
        .collect();
    let outcomes: Vec<Result<RunReport, (String, Arc<GraphmemError>)>> =
        run_supervised(&distinct, config)?
            .outcomes
            .into_iter()
            .map(|o| o.map_err(|f| (f.config_hash, Arc::new(f.error))))
            .collect();

    let mut results = Vec::with_capacity(claims.len());
    for ((&claim, grid), slots) in claims.iter().zip(&grids).zip(&slots) {
        let mut reports = Vec::with_capacity(slots.len());
        let mut broken = None;
        for &slot in slots {
            match &outcomes[slot] {
                Ok(report) => reports.push(report.clone()),
                Err((hash, error)) => {
                    broken = Some(Status::Broken {
                        config_hash: hash.clone(),
                        error: Arc::clone(error),
                    });
                    break;
                }
            }
        }
        let (status, tables) = match broken {
            Some(status) => (status, Vec::new()),
            None => {
                let mut findings = (claim.evaluate)(&Evidence {
                    scale,
                    experiments: grid,
                    reports: &reports,
                });
                for r in reports.iter().filter(|r| !r.verified) {
                    findings.failures.push(format!(
                        "{} differs from its native twin",
                        r.labels.join(" ")
                    ));
                }
                let status = if !claim.judged_at.contains(&scale) {
                    Status::NotJudged
                } else if findings.failures.is_empty() {
                    Status::Holds
                } else {
                    Status::Fails(findings.failures)
                };
                (status, findings.tables)
            }
        };
        results.push(ClaimOutcome {
            claim,
            status,
            tables,
        });
    }
    Ok(ClaimsOutcome {
        claims: results,
        experiments: grids.iter().map(Vec::len).sum(),
        distinct: distinct.len(),
    })
}

#[cfg(test)]
mod tests;
