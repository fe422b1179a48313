//! Secondary analyses over the regenerated data: speedup/efficiency,
//! seed robustness, and the clustering study.

use crate::figures::RuntimeFigure;
use rayon::prelude::*;
use serde::Serialize;
use wfdag::cluster_horizontal;
use wfengine::{run_workflow, RunConfig, RunStats};
use wfgen::App;
use wfstorage::StorageKind;

/// Speedup and parallel efficiency of one (storage, n) point, relative to
/// that storage option's smallest valid cluster.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SpeedupRow {
    /// Storage option.
    pub storage: StorageKind,
    /// Worker count.
    pub workers: u32,
    /// Makespan, seconds.
    pub makespan_secs: f64,
    /// T(base)/T(n).
    pub speedup: f64,
    /// speedup × base_workers / workers.
    pub efficiency: f64,
}

/// Compute the speedup table of a runtime figure (§VI's "adding resources
/// improves runtime but rarely cost" argument quantified).
pub fn speedup_table(fig: &RuntimeFigure) -> Vec<SpeedupRow> {
    let mut rows = Vec::new();
    for storage in StorageKind::EVALUATED {
        let points: Vec<_> = fig
            .cells
            .iter()
            .filter(|c| c.cell.storage == storage)
            .map(|c| (c.cell.workers, c.makespan_secs))
            .collect();
        let Some(&(base_n, base_t)) = points.first() else {
            continue;
        };
        for (n, t) in points {
            let speedup = base_t / t;
            rows.push(SpeedupRow {
                storage,
                workers: n,
                makespan_secs: t,
                speedup,
                efficiency: speedup * f64::from(base_n) / f64::from(n),
            });
        }
    }
    rows
}

/// Render the speedup table.
pub fn render_speedup(app: App, rows: &[SpeedupRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "SPEEDUP — {app}: scaling relative to each option's smallest cluster"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "  {:<24} n={:<2} {:>8.0}s  speedup {:>4.2}x  efficiency {:>5.1}%",
            r.storage.label(),
            r.workers,
            r.makespan_secs,
            r.speedup,
            r.efficiency * 100.0
        );
    }
    s
}

/// Seed-robustness: min/mean/max makespan over several engine seeds for
/// one (app, storage, workers) cell.
#[derive(Debug, Clone, Serialize)]
pub struct RobustnessRow {
    /// Storage option.
    pub storage: StorageKind,
    /// Minimum makespan over the seeds.
    pub min_secs: f64,
    /// Mean makespan.
    pub mean_secs: f64,
    /// Maximum makespan.
    pub max_secs: f64,
}

/// Run `app` at `workers` nodes across `seeds` for every deployable
/// storage option and report the spread (no rows for no seeds). The
/// qualitative conclusions of §V must not hinge on one lucky seed.
pub fn seed_robustness(app: App, workers: u32, seeds: &[u64]) -> Vec<RobustnessRow> {
    let jobs: Vec<(StorageKind, u64)> = StorageKind::EVALUATED
        .into_iter()
        .filter(|s| s.admits(workers))
        .flat_map(|storage| seeds.iter().map(move |&seed| (storage, seed)))
        .collect();
    let wf = app.paper_workflow();
    let times: Vec<f64> = jobs
        .par_iter()
        .map(|&(storage, seed)| {
            let cfg = RunConfig::cell(storage, workers).with_seed(seed);
            run_workflow(wf.clone(), cfg)
                .expect("cell runs")
                .makespan_secs
        })
        .collect();
    let per_storage = seeds.len().max(1);
    jobs.chunks(per_storage)
        .zip(times.chunks(per_storage))
        .map(|(jobs, times)| RobustnessRow {
            storage: jobs[0].0,
            min_secs: times.iter().copied().fold(f64::INFINITY, f64::min),
            mean_secs: times.iter().sum::<f64>() / times.len() as f64,
            max_secs: times.iter().copied().fold(0.0, f64::max),
        })
        .collect()
}

/// The clustering study (A6): Montage with horizontal clustering, the
/// standard Pegasus mitigation for its thousands of short tasks.
///
/// Clustering trades per-job dispatch overhead against lost pipelining
/// (a clustered job's I/O and compute no longer overlap with its
/// members'), so the study sweeps both the cluster size and the per-job
/// overhead: at our calibrated 0.25 s overhead clustering *loses*, while
/// at the ~2 s overheads a loaded 2010 Condor schedd exhibited it wins —
/// which is exactly when Pegasus deployments reached for it.
#[derive(Debug, Clone, Serialize)]
pub struct ClusteringRow {
    /// Storage option.
    pub storage: StorageKind,
    /// Per-job dispatch overhead, seconds.
    pub job_overhead_secs: f64,
    /// Cluster size (1 = the paper's unclustered runs).
    pub cluster_size: u32,
    /// Jobs after clustering.
    pub jobs: usize,
    /// Makespan, seconds.
    pub makespan_secs: f64,
    /// S3 GET+PUT requests (request fees scale with these).
    pub s3_requests: u64,
}

/// Run Montage at 4 workers with several cluster sizes and two per-job
/// overhead regimes, on the systems §V showed suffering most from
/// per-job costs.
pub fn clustering_study(seed: u64) -> Vec<ClusteringRow> {
    let mut combos = Vec::new();
    for storage in [StorageKind::S3, StorageKind::GlusterNufa] {
        for overhead in [0.25f64, 2.0] {
            for k in [1u32, 4, 16] {
                combos.push((storage, overhead, k));
            }
        }
    }
    let montage = wfgen::montage(wfgen::MontageConfig::paper());
    combos
        .par_iter()
        .map(|&(storage, overhead, k)| {
            let wf = cluster_horizontal(&montage, k);
            let jobs = wf.task_count();
            let mut cfg = RunConfig::cell(storage, 4).with_seed(seed);
            cfg.job_overhead = simcore::SimDuration::from_secs_f64(overhead);
            let stats: RunStats = run_workflow(wf, cfg).expect("clustered run");
            ClusteringRow {
                storage,
                job_overhead_secs: overhead,
                cluster_size: k,
                jobs,
                makespan_secs: stats.makespan_secs,
                s3_requests: stats.billing.s3_gets + stats.billing.s3_puts,
            }
        })
        .collect()
}

/// Render the clustering study.
pub fn render_clustering(rows: &[ClusteringRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "A6 — HORIZONTAL CLUSTERING (Montage @ 4 nodes): dispatch overhead vs lost pipelining"
    );
    let _ = writeln!(
        s,
        "  {:<24} {:>9} {:>5} {:>8} {:>10} {:>12}",
        "storage", "overhead", "k", "jobs", "makespan", "S3 requests"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "  {:<24} {:>8.2}s {:>5} {:>8} {:>9.0}s {:>12}",
            r.storage.label(),
            r.job_overhead_secs,
            r.cluster_size,
            r.jobs,
            r.makespan_secs,
            r.s3_requests
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::runtime_figure;

    #[test]
    fn speedup_table_is_monotone_for_scalable_systems() {
        let fig = runtime_figure(App::Epigenome, 42);
        let rows = speedup_table(&fig);
        let gluster: Vec<_> = rows
            .iter()
            .filter(|r| r.storage == StorageKind::GlusterNufa)
            .collect();
        assert_eq!(gluster.len(), 3);
        assert!(gluster.windows(2).all(|w| w[1].speedup >= w[0].speedup));
        assert!((gluster[0].speedup - 1.0).abs() < 1e-9);
        assert!(gluster.iter().all(|r| r.efficiency <= 1.05));
    }
}
