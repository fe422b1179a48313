//! Experiments E1–E8: regenerating every table and figure of the paper.

use crate::grid::{figure_cells, run_cell, run_cell_with, run_cells, Cell, CellResult};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use vcluster::InstanceType;
use wfengine::RunConfig;
use wfgen::profiler::{classify, profile, ResourceUsage};
use wfgen::App;
use wfstorage::StorageKind;

/// Table I: per-application resource-usage grades.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1 {
    /// (application, grades) rows in the paper's order.
    pub rows: Vec<(App, ResourceUsage)>,
}

/// Regenerate Table I via the wfprof-style profiler.
pub fn table1() -> Table1 {
    Table1 {
        rows: App::ALL
            .iter()
            .map(|app| (*app, classify(&profile(&app.paper_workflow()))))
            .collect(),
    }
}

/// One runtime figure (Figs 2–4): every storage × node-count cell of one
/// application, plus — for Broadband — the §V.C m2.4xlarge NFS run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RuntimeFigure {
    /// The application.
    pub app: App,
    /// All standard cells.
    pub cells: Vec<CellResult>,
    /// The NFS-on-m2.4xlarge variant (Broadband @ 4 nodes only).
    pub nfs_m24: Option<CellResult>,
}

impl RuntimeFigure {
    /// Makespan of a specific (storage, workers) cell, if present.
    pub fn makespan(&self, storage: StorageKind, workers: u32) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.cell.storage == storage && c.cell.workers == workers)
            .map(|c| c.makespan_secs)
    }

    /// The cell record for (storage, workers).
    pub fn cell(&self, storage: StorageKind, workers: u32) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.cell.storage == storage && c.cell.workers == workers)
    }
}

/// Run Figure 2 (Montage), 3 (Epigenome) or 4 (Broadband).
pub fn runtime_figure(app: App, seed: u64) -> RuntimeFigure {
    let mut results = run_cells(&figure_cells(app), seed);
    results.sort_by_key(|r| (format!("{:?}", r.cell.storage), r.cell.workers));
    let nfs_m24 = (app == App::Broadband).then(|| {
        let mut cfg = RunConfig::cell(StorageKind::Nfs, 4).with_seed(seed);
        cfg.server_type = Some(InstanceType::M24Xlarge);
        run_cell_with(app, cfg).expect("m2.4xlarge NFS cell")
    });
    RuntimeFigure {
        app,
        cells: results,
        nfs_m24,
    }
}

/// Figs 5–7 are pure views over the same cell results (per-hour and
/// per-second total cost); this type exists so reports can serialise them
/// separately.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostFigure {
    /// The application.
    pub app: App,
    /// (storage, workers, $/run per-hour, $/run per-second).
    pub rows: Vec<(StorageKind, u32, f64, f64)>,
}

/// Derive the cost figure from a runtime figure.
pub fn cost_figure(fig: &RuntimeFigure) -> CostFigure {
    CostFigure {
        app: fig.app,
        rows: fig
            .cells
            .iter()
            .map(|c| {
                (
                    c.cell.storage,
                    c.cell.workers,
                    c.cost_per_hour_usd,
                    c.cost_per_second_usd,
                )
            })
            .collect(),
    }
}

/// Experiment E8: the XtreemFS anecdote (§IV) — both I/O-heavy apps take
/// more than twice as long as on the systems reported in the figures.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct XtreemFsNote {
    /// (app, xtreemfs makespan, best reported makespan at same size).
    pub rows: Vec<(App, f64, f64)>,
}

/// Run the XtreemFS comparison at 2 workers.
pub fn xtreemfs_note(seed: u64) -> XtreemFsNote {
    let rows = [App::Montage, App::Broadband]
        .par_iter()
        .map(|&app| {
            let x = run_cell(Cell::new(app, StorageKind::XtreemFs, 2), seed).expect("xtreemfs");
            let g = run_cell(Cell::new(app, StorageKind::GlusterNufa, 2), seed).expect("gluster");
            (app, x.makespan_secs, g.makespan_secs)
        })
        .collect();
    XtreemFsNote { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfgen::Grade;

    #[test]
    fn table1_matches_paper() {
        let t = table1();
        let by_app = |a: App| t.rows.iter().find(|(x, _)| *x == a).unwrap().1;
        let m = by_app(App::Montage);
        assert_eq!(
            (m.io, m.memory, m.cpu),
            (Grade::High, Grade::Low, Grade::Low)
        );
        let b = by_app(App::Broadband);
        assert_eq!(
            (b.io, b.memory, b.cpu),
            (Grade::Medium, Grade::High, Grade::Medium)
        );
        let e = by_app(App::Epigenome);
        assert_eq!(
            (e.io, e.memory, e.cpu),
            (Grade::Low, Grade::Medium, Grade::High)
        );
    }
}
