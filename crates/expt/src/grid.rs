//! The experiment grid: one cell = (application, storage option, cluster
//! size), exactly the axes of Figs 2–7.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use vcluster::InstanceType;
use wfcost::{BillingGranularity, CostModel, UsageReport};
use wfengine::{run_workflow, RunConfig, RunError, RunStats};
use wfgen::App;
use wfstorage::StorageKind;

/// One cell of the paper's grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

    /// Is this combination deployable (§V: GlusterFS/PVFS need ≥2 nodes,
    /// Local only runs on 1)?
    pub fn is_valid(&self) -> bool {
        match self.storage {
            StorageKind::Local => self.workers == 1,
            StorageKind::GlusterNufa | StorageKind::GlusterDistribute | StorageKind::Pvfs => {
                self.workers >= 2
            }
            _ => self.workers >= 1,
        }
    }
}

/// The result of one cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    let wf = app.paper_workflow();
    let cell = Cell {
        app,
        storage: cfg.storage,
        workers: cfg.workers,
        server_type: cfg.server_type,
    };
    let stats = run_workflow(wf, cfg.clone())?;
    Ok(summarize(cell, &cfg, &stats))
}

/// Run one standard cell.
pub fn run_cell(cell: Cell, seed: u64) -> Result<CellResult, RunError> {
    let mut cfg = RunConfig::cell(cell.storage, cell.workers).with_seed(seed);
    cfg.server_type = cell.server_type;
    run_cell_with(cell.app, cfg)
}

/// Derive the billing usage and assemble the result record.
pub fn summarize(cell: Cell, cfg: &RunConfig, stats: &RunStats) -> CellResult {
    let mut instances = vec![(InstanceType::C1Xlarge, cfg.workers)];
    if cfg.storage == StorageKind::Nfs {
        instances.push((cfg.server_type.unwrap_or(InstanceType::M1Xlarge), 1));
    }
    let usage = UsageReport {
        wall_secs: stats.makespan_secs,
        instances,
        s3_puts: stats.billing.s3_puts,
        s3_gets: stats.billing.s3_gets,
        s3_peak_bytes: stats.billing.s3_peak_bytes,
    };
    let model = CostModel::default();
    CellResult {
        cell,
        makespan_secs: stats.makespan_secs,
        cost_per_hour_usd: model
            .workflow_cost(&usage, BillingGranularity::PerHour)
            .total_dollars(),
        cost_per_second_usd: model
            .workflow_cost(&usage, BillingGranularity::PerSecond)
            .total_dollars(),
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
    cells
        .par_iter()
        .map(|c| run_cell(*c, seed).unwrap_or_else(|e| panic!("cell {c:?} failed: {e}")))
        .collect()
}

/// [`run_cells`] for explicit run configurations (ablated or
/// non-standard variants of a cell).
pub fn run_configs(jobs: &[(App, RunConfig)]) -> Vec<CellResult> {
    jobs.par_iter()
        .map(|(app, cfg)| {
            run_cell_with(*app, cfg.clone())
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
    fn figure_has_19_cells() {
        // S3 and NFS: 4 node counts each; GlusterFS ×2 and PVFS: 3 each;
        // Local: 1. Total 8 + 9 + 3 + ... = 8 + 6 + 3 + 1 = 18... counted:
        // S3(4) + NFS(4) + NUFA(3) + dist(3) + PVFS(3) + Local(1) = 18.
        assert_eq!(figure_cells(App::Montage).len(), 18);
    }
}
