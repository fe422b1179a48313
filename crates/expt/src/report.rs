//! The serialisable reproduction report: everything `repro` regenerates.

use crate::ablations::Ablations;
use crate::analysis::{ClusteringRow, SpeedupRow};
use crate::faults::FaultStudy;
use crate::figures::{cost_figure, CostFigure, RuntimeFigure, Table1, XtreemFsNote};
use crate::future_work::FutureWork;
use crate::microbench::DiskMicrobench;
use crate::shape::ShapeCheck;
use serde::Serialize;

/// A complete regeneration of the paper's evaluation.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Experiment seed.
    pub seed: u64,
    /// Table I.
    pub table1: Table1,
    /// §III.C disk microbenchmark.
    pub microbench: DiskMicrobench,
    /// Figs 2–4 (runtime) data.
    pub runtime_figures: Vec<RuntimeFigure>,
    /// Figs 5–7 (cost) data, derived from the same cells.
    pub cost_figures: Vec<CostFigure>,
    /// The XtreemFS anecdote.
    pub xtreemfs: XtreemFsNote,
    /// Ablations A1–A5.
    pub ablations: Option<Ablations>,
    /// F1: the §VIII future-work comparison.
    pub future_work: Option<FutureWork>,
    /// F2: the fault-injection study.
    pub faults: Option<FaultStudy>,
    /// A6: the horizontal-clustering study.
    pub clustering: Option<Vec<ClusteringRow>>,
    /// Speedup/efficiency tables derived from the runtime figures.
    pub speedups: Vec<SpeedupRow>,
    /// Shape-check scoreboard.
    pub checks: Vec<ShapeCheck>,
}

impl Report {
    /// Assemble a report from regenerated pieces.
    #[allow(clippy::too_many_arguments)] // one parameter per regenerated artifact
    pub fn assemble(
        seed: u64,
        table1: Table1,
        microbench: DiskMicrobench,
        runtime_figures: Vec<RuntimeFigure>,
        xtreemfs: XtreemFsNote,
        ablations: Option<Ablations>,
        future_work: Option<FutureWork>,
        faults: Option<FaultStudy>,
        clustering: Option<Vec<ClusteringRow>>,
    ) -> Report {
        let mut checks = crate::shape::check_all(&runtime_figures, &table1, &xtreemfs);
        if let Some(study) = &faults {
            checks.extend(crate::faults::check_f2(study));
        }
        let cost_figures = runtime_figures.iter().map(cost_figure).collect();
        let speedups = runtime_figures
            .iter()
            .flat_map(crate::analysis::speedup_table)
            .collect();
        Report {
            seed,
            table1,
            microbench,
            runtime_figures,
            cost_figures,
            xtreemfs,
            ablations,
            future_work,
            faults,
            clustering,
            speedups,
            checks,
        }
    }

    /// Count of (passed, total) shape checks.
    pub fn score(&self) -> (usize, usize) {
        (
            self.checks.iter().filter(|c| c.passed).count(),
            self.checks.len(),
        )
    }
}
