//! The experiment grid: one cell = (application, storage option, cluster
//! size), exactly the axes of Figs 2–7.

use rayon::prelude::*;
use serde::Serialize;
use vcluster::InstanceType;
use wfcost::BillingGranularity;
use wfdag::Workflow;
use wfengine::{run_workflow, RunConfig, RunError, RunStats};
use wfgen::App;
use wfstorage::StorageKind;

/// One cell of the paper's grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Cell {
    /// The application.
    pub app: App,
    /// The data-sharing option.
    pub storage: StorageKind,
    /// Worker-node count (the paper sweeps 1, 2, 4, 8).
    pub workers: u32,
    /// Dedicated-server override (§V.C's m2.4xlarge NFS experiment).
    pub server_type: Option<InstanceType>,
}

impl Cell {
    /// A standard grid cell.
    pub fn new(app: App, storage: StorageKind, workers: u32) -> Self {
        Cell {
            app,
            storage,
            workers,
            server_type: None,
        }
    }

    /// The standard run configuration of this cell at `seed`.
    fn config(&self, seed: u64) -> RunConfig {
        let mut cfg = RunConfig::cell(self.storage, self.workers).with_seed(seed);
        cfg.server_type = self.server_type;
        cfg
    }

    /// Is this combination deployable ([`StorageKind::admits`])?
    pub fn is_valid(&self) -> bool {
        self.storage.admits(self.workers)
    }
}

/// The result of one cell.
#[derive(Debug, Clone, Serialize)]
pub struct CellResult {
    /// The cell.
    pub cell: Cell,
    /// Workflow makespan in seconds (§V's metric).
    pub makespan_secs: f64,
    /// Total cost in dollars under per-hour billing (§VI).
    pub cost_per_hour_usd: f64,
    /// Total cost in dollars under hypothetical per-second billing.
    pub cost_per_second_usd: f64,
    /// S3 GET/PUT request counts (zero for non-S3 cells).
    pub s3_requests: (u64, u64),
    /// Storage cache hits/misses.
    pub cache: (u64, u64),
    /// Fraction of occupied-slot time spent in I/O.
    pub io_fraction: f64,
    /// Simulation events (diagnostic).
    pub events: u64,
}

/// Run one cell with an explicit run configuration (ablations override
/// fields before calling).
pub fn run_cell_with(app: App, cfg: RunConfig) -> Result<CellResult, RunError> {
    run_on(app, app.paper_workflow(), cfg)
}

/// Run `wf`, `app`'s paper workflow, under `cfg`.
fn run_on(app: App, wf: Workflow, cfg: RunConfig) -> Result<CellResult, RunError> {
    let cell = Cell {
        app,
        storage: cfg.storage,
        workers: cfg.workers,
        server_type: cfg.server_type,
    };
    let stats = run_workflow(wf, cfg)?;
    Ok(summarize(cell, &stats))
}

/// Run one standard cell.
pub fn run_cell(cell: Cell, seed: u64) -> Result<CellResult, RunError> {
    run_cell_with(cell.app, cell.config(seed))
}

/// Bill the run ([`RunStats::cost`]) and assemble the result record.
pub fn summarize(cell: Cell, stats: &RunStats) -> CellResult {
    CellResult {
        cell,
        makespan_secs: stats.makespan_secs,
        cost_per_hour_usd: stats.cost(BillingGranularity::PerHour).total_dollars(),
        cost_per_second_usd: stats.cost(BillingGranularity::PerSecond).total_dollars(),
        s3_requests: (stats.billing.s3_gets, stats.billing.s3_puts),
        cache: (stats.op_stats.cache_hits, stats.op_stats.cache_misses),
        io_fraction: stats.io_fraction(),
        events: stats.events,
    }
}

/// The node counts of every figure.
pub const NODE_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// All valid cells of one application's figure.
pub fn figure_cells(app: App) -> Vec<Cell> {
    let mut cells = Vec::new();
    for storage in StorageKind::EVALUATED {
        for n in NODE_COUNTS {
            let c = Cell::new(app, storage, n);
            if c.is_valid() {
                cells.push(c);
            }
        }
    }
    cells
}

/// Run a set of cells in parallel (each cell is an independent
/// simulation); panics on infeasible cells, which `figure_cells` never
/// produces.
pub fn run_cells(cells: &[Cell], seed: u64) -> Vec<CellResult> {
    let jobs: Vec<(App, RunConfig)> = cells.iter().map(|c| (c.app, c.config(seed))).collect();
    run_configs(&jobs)
}

/// [`run_cells`] for explicit run configurations (ablated or
/// non-standard variants of a cell). Each application's paper workflow
/// is generated once and cloned per job.
pub fn run_configs(jobs: &[(App, RunConfig)]) -> Vec<CellResult> {
    let mut workflows: Vec<(App, Workflow)> = Vec::new();
    for &(app, _) in jobs {
        if !workflows.iter().any(|(a, _)| *a == app) {
            workflows.push((app, app.paper_workflow()));
        }
    }
    jobs.par_iter()
        .map(|(app, cfg)| {
            let (_, wf) = workflows
                .iter()
                .find(|(a, _)| a == app)
                .expect("generated above");
            run_on(*app, wf.clone(), cfg.clone())
                .unwrap_or_else(|e| panic!("{app} {:?}@{} failed: {e}", cfg.storage, cfg.workers))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validity_rules_match_section_v() {
        assert!(Cell::new(App::Montage, StorageKind::Local, 1).is_valid());
        assert!(!Cell::new(App::Montage, StorageKind::Local, 2).is_valid());
        assert!(!Cell::new(App::Montage, StorageKind::GlusterNufa, 1).is_valid());
        assert!(Cell::new(App::Montage, StorageKind::Pvfs, 2).is_valid());
        assert!(Cell::new(App::Montage, StorageKind::S3, 1).is_valid());
        assert!(Cell::new(App::Montage, StorageKind::Nfs, 8).is_valid());
    }

    #[test]
    fn figure_has_18_cells() {
        // S3(4) + NFS(4) + NUFA(3) + distribute(3) + PVFS(3) + Local(1) = 18.
        assert_eq!(figure_cells(App::Montage).len(), 18);
    }
}
