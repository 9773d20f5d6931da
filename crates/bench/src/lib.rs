//! Shared harness utilities for the experiment binaries.
//!
//! The binaries in `src/bin/` regenerate the paper's evaluation artefacts:
//!
//! * `figures` — Figs. 2, 3, 4 (loss/accuracy under the 2×2 DP×attack grid
//!   at b = 10/50/500);
//! * `table1` — the per-GAR necessary conditions plus empirical VN-ratio
//!   confirmation;
//! * `theorem1` — the Θ(d·log(1/δ)/(T·b²·ε²)) error-rate scaling sweeps;
//! * `sweep` — the "full version" hyper-parameter sweep and the ablations
//!   called out in DESIGN.md (attack visibility, momentum placement,
//!   Laplace vs Gaussian noise).
//!
//! Results are written as CSV under `results/` in the current directory
//! (or `--out DIR`) and summarized on stdout with ASCII plots.

use dpbyz::prelude::*;
use std::path::PathBuf;

/// One cell of a figure's configuration grid. Attacks are named by
/// registry id (resolved through the `dpbyz` component registry), so
/// third-party attacks slot into sweeps without code changes here.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Short label, e.g. `"dp+alie"`.
    pub label: &'static str,
    /// Privacy ε (`None` = no DP).
    pub epsilon: Option<f64>,
    /// Attack registry id (`None` = unattacked, averaging over 11 honest
    /// workers).
    pub attack: Option<&'static str>,
}

/// The paper's 2 (DP) × 3 (attack) grid: the six curves behind each figure.
pub const FIGURE_CELLS: [Cell; 6] = [
    Cell {
        label: "clean",
        epsilon: None,
        attack: None,
    },
    Cell {
        label: "alie",
        epsilon: None,
        attack: Some("alie"),
    },
    Cell {
        label: "foe",
        epsilon: None,
        attack: Some("foe"),
    },
    Cell {
        label: "dp",
        epsilon: Some(0.2),
        attack: None,
    },
    Cell {
        label: "dp+alie",
        epsilon: Some(0.2),
        attack: Some("alie"),
    },
    Cell {
        label: "dp+foe",
        epsilon: Some(0.2),
        attack: Some("foe"),
    },
];

/// Aggregated outcome of one cell across seeds.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell.
    pub cell: Cell,
    /// Per-seed histories.
    pub histories: Vec<RunHistory>,
}

impl CellResult {
    /// Mean ± std of the tail training loss (last 5% of steps).
    pub fn tail_loss(&self) -> SeedSummary {
        let k = (self.histories[0].train_loss.len() / 20).max(1);
        SeedSummary::from_metric(&self.histories, |h| h.tail_loss(k))
    }

    /// Mean ± std of the minimum training loss.
    pub fn min_loss(&self) -> SeedSummary {
        SeedSummary::from_metric(&self.histories, |h| h.min_loss())
    }

    /// Mean ± std of the final test accuracy (NaN if never evaluated).
    pub fn final_accuracy(&self) -> SeedSummary {
        SeedSummary::from_metric(&self.histories, |h| h.final_accuracy().unwrap_or(f64::NAN))
    }

    /// Mean loss curve across seeds.
    pub fn mean_loss_curve(&self) -> Vec<f64> {
        SeedSummary::loss_curve(&self.histories)
            .into_iter()
            .map(|s| s.mean)
            .collect()
    }

    /// Mean VN ratio of submitted gradients across seeds and steps.
    pub fn mean_vn_submitted(&self) -> f64 {
        let sum: f64 = self.histories.iter().map(|h| h.mean_vn_submitted()).sum();
        sum / self.histories.len() as f64
    }
}

/// Builds one cell's experiment at a given batch size via the fluent
/// builder (paper protocol: MDA with f = 5 once an attack is armed,
/// averaging over 11 honest workers otherwise).
///
/// # Errors
///
/// Propagates [`PipelineError`] from the builder.
pub fn cell_experiment(
    cell: Cell,
    batch_size: usize,
    steps: u32,
    dataset_size: usize,
) -> Result<Experiment, PipelineError> {
    let mut builder = Experiment::builder()
        .batch_size(batch_size)
        .steps(steps)
        .dataset_size(dataset_size);
    if let Some(attack) = cell.attack {
        builder = builder.gar("mda").attack(attack);
    }
    if let Some(epsilon) = cell.epsilon {
        builder = builder.epsilon(epsilon);
    }
    builder.build()
}

/// Runs one cell at a given batch size across seeds, parallelizing over
/// the seeds.
///
/// # Errors
///
/// Propagates [`PipelineError`] from the pipeline.
pub fn run_cell(
    cell: Cell,
    batch_size: usize,
    steps: u32,
    dataset_size: usize,
    seeds: &[u64],
) -> Result<CellResult, PipelineError> {
    let mut results = run_cells(&[cell], batch_size, steps, dataset_size, seeds)?;
    Ok(results.pop().expect("one cell in, one result out")) // lint:allow(panic-unwrap, reason = "one cell in, one result out: the grid passed below is a singleton")
}

/// Runs a whole grid of cells across seeds on the parallel sweep
/// executor: every (cell, seed) job is fanned over the thread pool and
/// the results come back in the input cell order, bit-identical to the
/// serial loop.
///
/// # Errors
///
/// Propagates [`PipelineError`] from the pipeline; an empty cell list is
/// a [`PipelineError::Spec`] (the axis-free `SweepBuilder` would
/// otherwise fall back to running its base cell and discard it).
pub fn run_cells(
    cells: &[Cell],
    batch_size: usize,
    steps: u32,
    dataset_size: usize,
    seeds: &[u64],
) -> Result<Vec<CellResult>, PipelineError> {
    if cells.is_empty() {
        return Err(PipelineError::Spec(
            "run_cells needs at least one cell".into(),
        ));
    }
    let mut sweep = SweepBuilder::new().seeds(seeds);
    for cell in cells {
        sweep = sweep.cell(
            cell.label,
            cell_experiment(*cell, batch_size, steps, dataset_size)?,
        );
    }
    let results = sweep.run()?;
    Ok(results
        .cells
        .into_iter()
        .zip(cells)
        .map(|(run, &cell)| CellResult {
            cell,
            histories: run.histories,
        })
        .collect())
}

/// Directory experiment CSVs and bench JSON are written to (created on
/// demand): the `--out DIR` argument, else `results/` under the current
/// directory — never a path fixed at compile time, so a binary copied out
/// of its checkout writes where it runs.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(arg_value("--out").unwrap_or_else(|| "results".into()));
    std::fs::create_dir_all(&dir).expect("create results dir"); // lint:allow(panic-unwrap, reason = "bench harness I/O: failing to persist results should abort the run loudly")
    dir
}

/// Writes a CSV file into [`results_dir`] and reports the path on stdout.
pub fn write_csv(name: &str, content: &str) {
    let path = results_dir().join(name);
    std::fs::write(&path, content).expect("write results csv"); // lint:allow(panic-unwrap, reason = "bench harness I/O: failing to persist results should abort the run loudly")
    println!("  wrote {}", path.display());
}

/// Parses `--flag value`-style arguments very simply.
pub fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Whether a bare `--flag` is present.
pub fn arg_present(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_cells_cover_grid() {
        assert_eq!(FIGURE_CELLS.len(), 6);
        let dp_count = FIGURE_CELLS.iter().filter(|c| c.epsilon.is_some()).count();
        assert_eq!(dp_count, 3);
        let attacked = FIGURE_CELLS.iter().filter(|c| c.attack.is_some()).count();
        assert_eq!(attacked, 4);
    }

    #[test]
    fn run_cell_produces_summaries() {
        let res = run_cell(FIGURE_CELLS[0], 10, 8, 200, &[1, 2]).unwrap();
        assert_eq!(res.histories.len(), 2);
        let tail = res.tail_loss();
        assert_eq!(tail.runs, 2);
        assert!(tail.mean.is_finite());
        assert_eq!(res.mean_loss_curve().len(), 8);
        assert!(res.min_loss().mean <= tail.mean + 1e-9);
    }

    #[test]
    fn run_cells_rejects_empty_input() {
        assert!(matches!(
            run_cells(&[], 10, 5, 200, &[1]),
            Err(PipelineError::Spec(_))
        ));
    }

    #[test]
    fn run_cells_preserves_input_order_and_matches_serial() {
        let cells = [FIGURE_CELLS[0], FIGURE_CELLS[1]];
        let results = run_cells(&cells, 10, 5, 200, &[1, 2]).unwrap();
        assert_eq!(results.len(), 2);
        for (res, cell) in results.iter().zip(&cells) {
            assert_eq!(res.cell.label, cell.label);
            let serial = cell_experiment(*cell, 10, 5, 200)
                .unwrap()
                .run_seeds(&[1, 2])
                .unwrap();
            assert_eq!(res.histories, serial, "cell {}", cell.label);
        }
    }
}
