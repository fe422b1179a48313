//! Experiments E1–E8: regenerating every table and figure of the paper.

use crate::grid::{figure_cells, run_cells, Cell, CellResult};
use serde::Serialize;
use vcluster::InstanceType;
use wfgen::profiler::{classify, profile, ResourceUsage};
use wfgen::App;
use wfstorage::StorageKind;

/// Table I: per-application resource-usage grades.
#[derive(Debug, Clone, Serialize)]
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
#[derive(Debug, Clone, Serialize)]
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
        self.cell(storage, workers).map(|c| c.makespan_secs)
    }

    /// The cell record for (storage, workers).
    pub fn cell(&self, storage: StorageKind, workers: u32) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.cell.storage == storage && c.cell.workers == workers)
    }
}

/// Run Figure 2 (Montage), 3 (Epigenome) or 4 (Broadband). Broadband's
/// m2.4xlarge NFS cell runs in the same job list as the figure's cells.
pub fn runtime_figure(app: App, seed: u64) -> RuntimeFigure {
    let mut cells = figure_cells(app);
    if app == App::Broadband {
        cells.push(Cell {
            server_type: Some(InstanceType::M24Xlarge),
            ..Cell::new(app, StorageKind::Nfs, 4)
        });
    }
    let (m24, mut results): (Vec<_>, Vec<_>) = run_cells(&cells, seed)
        .into_iter()
        .partition(|r| r.cell.server_type.is_some());
    results.sort_by_key(|r| (format!("{:?}", r.cell.storage), r.cell.workers));
    RuntimeFigure {
        app,
        cells: results,
        nfs_m24: m24.into_iter().next(),
    }
}

/// Figs 5–7 are pure views over the same cell results (per-hour and
/// per-second total cost); this type exists so reports can serialise them
/// separately.
#[derive(Debug, Clone, Serialize)]
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
#[derive(Debug, Clone, Serialize)]
pub struct XtreemFsNote {
    /// (app, xtreemfs makespan, best reported makespan at same size).
    pub rows: Vec<(App, f64, f64)>,
}

/// Run the XtreemFS comparison at 2 workers.
pub fn xtreemfs_note(seed: u64) -> XtreemFsNote {
    let apps = [App::Montage, App::Broadband];
    let cells = apps
        .map(|app| [StorageKind::XtreemFs, StorageKind::GlusterNufa].map(|s| Cell::new(app, s, 2)));
    let results = run_cells(cells.as_flattened(), seed);
    let rows = apps
        .iter()
        .zip(results.chunks_exact(2))
        .map(|(&app, pair)| (app, pair[0].makespan_secs, pair[1].makespan_secs))
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
