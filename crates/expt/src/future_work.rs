//! Experiment F1 — the paper's future work (§VIII): "configurations in
//! which files can be transferred directly from one computational node to
//! another", evaluated against the best of the five published systems.

use crate::figures::RuntimeFigure;
use crate::grid::{run_configs, CellResult};
use serde::{Deserialize, Serialize};
use wfengine::{RunConfig, SchedulerPolicy};
use wfgen::App;
use wfstorage::StorageKind;

/// One (app, workers) comparison row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FutureWorkRow {
    /// The application.
    pub app: App,
    /// Worker count.
    pub workers: u32,
    /// Direct transfer with the paper's locality-blind scheduler.
    pub direct: CellResult,
    /// Direct transfer with the data-aware scheduler (the natural
    /// pairing: replicas make locality information valuable).
    pub direct_aware: CellResult,
    /// The best published-system makespan at the same size.
    pub best_published_secs: f64,
    /// Which system that was.
    pub best_published: StorageKind,
}

/// The full F1 experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FutureWork {
    /// Comparison rows for every app × size.
    pub rows: Vec<FutureWorkRow>,
}

/// Run F1 against already-regenerated runtime figures.
pub fn run(figs: &[RuntimeFigure], seed: u64) -> FutureWork {
    // Each (app, size) runs direct transfer with the paper's scheduler
    // and with the data-aware one: two cells per row, one flat list.
    let mut jobs = Vec::new();
    let mut configs = Vec::new();
    for fig in figs {
        for n in [2u32, 4, 8] {
            let (best_published, best_published_secs) = StorageKind::EVALUATED
                .iter()
                .filter_map(|s| fig.makespan(*s, n).map(|m| (*s, m)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("published cells exist");
            jobs.push((fig.app, n, best_published, best_published_secs));
            let blind = RunConfig::cell(StorageKind::DirectTransfer, n).with_seed(seed);
            let mut aware = blind.clone();
            aware.scheduler = SchedulerPolicy::DataAware;
            configs.extend([(fig.app, blind), (fig.app, aware)]);
        }
    }
    let results = run_configs(&configs);
    let rows = jobs
        .into_iter()
        .zip(results.chunks_exact(2))
        .map(
            |((app, workers, best_published, best_published_secs), pair)| FutureWorkRow {
                app,
                workers,
                direct: pair[0].clone(),
                direct_aware: pair[1].clone(),
                best_published_secs,
                best_published,
            },
        )
        .collect();
    FutureWork { rows }
}

/// Render the F1 table.
pub fn render(fw: &FutureWork) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "F1 — §VIII FUTURE WORK: direct node-to-node transfers vs the published systems"
    );
    let _ = writeln!(
        s,
        "  {:<10} {:>3} {:>14} {:>16} {:>22}",
        "app", "n", "direct", "direct+aware", "best published"
    );
    for r in &fw.rows {
        let _ = writeln!(
            s,
            "  {:<10} {:>3} {:>13.0}s {:>15.0}s {:>14.0}s ({})",
            r.app.label(),
            r.workers,
            r.direct.makespan_secs,
            r.direct_aware.makespan_secs,
            r.best_published_secs,
            r.best_published.label()
        );
    }
    s
}
