//! F2: fault injection and recovery — how makespan and cost inflate when
//! nodes crash, storage services fail, and spot instances are revoked.
//!
//! The paper measures a fault-free testbed; this experiment goes beyond
//! it (like F1) and asks how each data-sharing option *degrades*. Every
//! scenario is driven by the deterministic [`wfengine::FaultPlan`]
//! machinery, so the whole study is reproducible from the seed, and the
//! zero-rate scenario doubles as a live metamorphic check: a plan whose
//! rates are all zero must be bit-identical to no plan at all.

use rayon::prelude::*;
use serde::Serialize;
use wfcost::{BilledSegment, BillingGranularity, CostModel};
use wfdag::Workflow;
use wfengine::{
    run_workflow, FaultPlan, NodeCrashSpec, RunConfig, RunStats, SpotSpec, StorageFailureSpec,
};
use wfgen::App;
use wfstorage::StorageKind;

use crate::shape::{
    check, Cmp,
    Rel::{Ge, Gt, Le},
    Unit::Ratio,
};

/// The storage options the fault study sweeps: the dedicated-server
/// option (NFS), the object store (S3) and the two distributed options
/// whose data lives *on* the workers (GlusterFS distribute, PVFS).
pub const F2_STORAGES: [StorageKind; 4] = [
    StorageKind::Nfs,
    StorageKind::S3,
    StorageKind::GlusterDistribute,
    StorageKind::Pvfs,
];

/// Worker count of every fault cell (mid-grid; all four options valid).
pub const F2_WORKERS: u32 = 4;

/// One injected-fault scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FaultScenario {
    /// A present-but-all-zero plan — must change nothing (metamorphic).
    ZeroRate,
    /// Two workers crash mid-run (at 0.25× and 0.5× the clean makespan)
    /// and are re-provisioned after a boot delay.
    NodeChurn,
    /// The storage service fails once at 0.3× the clean makespan and
    /// takes 0.3× the clean makespan to recover: the NFS server stalls
    /// the run for the whole outage, a GlusterFS/PVFS peer loses its
    /// files, S3 only cools its client caches.
    ServerFailure,
    /// Workers run on the spot market (~2 revocations per node-hour) and
    /// are replaced by on-demand instances.
    SpotMarket,
}

impl FaultScenario {
    /// Every scenario, in report order.
    pub const ALL: [FaultScenario; 4] = [
        FaultScenario::ZeroRate,
        FaultScenario::NodeChurn,
        FaultScenario::ServerFailure,
        FaultScenario::SpotMarket,
    ];

    /// Short table label.
    pub fn label(self) -> &'static str {
        match self {
            FaultScenario::ZeroRate => "zero-rate",
            FaultScenario::NodeChurn => "node-churn",
            FaultScenario::ServerFailure => "server-fail",
            FaultScenario::SpotMarket => "spot-market",
        }
    }

    /// Build the fault plan for this scenario given the clean makespan.
    fn plan(self, clean_makespan_secs: f64) -> FaultPlan {
        let t = clean_makespan_secs;
        match self {
            FaultScenario::ZeroRate => FaultPlan::zero(),
            FaultScenario::NodeChurn => FaultPlan {
                node_crash: Some(NodeCrashSpec {
                    rate_per_hour: 0.0,
                    scheduled: vec![(0, 0.25 * t), (1, 0.5 * t)],
                    reprovision: true,
                }),
                max_fault_retries: 8,
                ..FaultPlan::default()
            },
            FaultScenario::ServerFailure => FaultPlan {
                storage_failure: Some(StorageFailureSpec {
                    rate_per_hour: 0.0,
                    scheduled: vec![0.3 * t],
                    recovery_secs: (0.3 * t).max(120.0),
                }),
                max_fault_retries: 8,
                ..FaultPlan::default()
            },
            FaultScenario::SpotMarket => FaultPlan {
                spot: Some(SpotSpec { rate_per_hour: 2.0 }),
                max_fault_retries: 16,
                ..FaultPlan::default()
            },
        }
    }
}

/// One (app, storage, scenario) measurement, with its clean baseline.
#[derive(Debug, Clone, Serialize)]
pub struct FaultRow {
    /// The application.
    pub app: App,
    /// The data-sharing option.
    pub storage: StorageKind,
    /// The scenario injected.
    pub scenario: FaultScenario,
    /// Makespan under faults.
    pub makespan_secs: f64,
    /// Fault-free makespan of the same cell.
    pub clean_makespan_secs: f64,
    /// `makespan / clean_makespan` — the degradation factor.
    pub inflation: f64,
    /// Instance cost in dollars under per-hour, per-incarnation billing
    /// (crashes forfeit started hours).
    pub cost_usd: f64,
    /// Fault-free instance cost of the same cell.
    pub clean_cost_usd: f64,
    /// `cost / clean_cost` — the wasted-money factor.
    pub cost_inflation: f64,
    /// Node crashes injected.
    pub node_crashes: u64,
    /// Spot revocations injected.
    pub spot_terminations: u64,
    /// Storage-service failures injected.
    pub storage_failures: u64,
    /// Executions killed mid-flight.
    pub tasks_killed: u64,
    /// Completed tasks re-run by the rescue-DAG pass.
    pub rescue_resubmits: u64,
    /// Files lost to storage failover.
    pub files_lost: u64,
    /// Slot-seconds of discarded partial work.
    pub wasted_task_secs: f64,
    /// For [`FaultScenario::ZeroRate`]: did the run match the no-plan
    /// baseline bit-for-bit (makespan bits, event count, segments)?
    pub bit_identical_to_clean: bool,
}

/// The full F2 study.
#[derive(Debug, Clone, Serialize)]
pub struct FaultStudy {
    /// Experiment seed.
    pub seed: u64,
    /// Worker count of every cell.
    pub workers: u32,
    /// One row per (app, storage, scenario).
    pub rows: Vec<FaultRow>,
}

impl FaultStudy {
    /// The row for one (app, storage, scenario), if present.
    pub fn row(&self, app: App, storage: StorageKind, sc: FaultScenario) -> Option<&FaultRow> {
        self.rows
            .iter()
            .find(|r| r.app == app && r.storage == storage && r.scenario == sc)
    }

    /// Apps present in the study, in first-appearance order.
    pub fn apps(&self) -> Vec<App> {
        let mut out: Vec<App> = Vec::new();
        for r in &self.rows {
            if !out.contains(&r.app) {
                out.push(r.app);
            }
        }
        out
    }
}

/// Per-hour instance cost of a run, in dollars, from its billing
/// segments (per-incarnation rounding — the fault-adjusted bill).
fn segment_cost_usd(stats: &RunStats) -> f64 {
    CostModel::default().segments_cents(&stats.faults.segments, BillingGranularity::PerHour) / 100.0
}

/// What a unit's scenario rows need from its clean run. `unit` is the
/// app's index in `apps` and the storage option.
struct CleanRun {
    unit: (usize, StorageKind),
    makespan_secs: f64,
    cost_usd: f64,
    events: u64,
    segments: Vec<BilledSegment>,
}

/// Run the F2 study over `apps` × [`F2_STORAGES`]. Every (app, storage)
/// unit's clean run is one job list; every (unit, scenario) run, whose
/// plan needs the clean makespan, is a second. Each job reduces its run
/// to a compact row before the next starts. Rows come out unit by unit,
/// each unit's in [`FaultScenario::ALL`] order.
pub fn run_f2(apps: &[App], seed: u64) -> FaultStudy {
    let wfs: Vec<Workflow> = apps.iter().map(|a| a.paper_workflow()).collect();
    let units: Vec<(usize, StorageKind)> = (0..apps.len())
        .flat_map(|a| F2_STORAGES.map(|s| (a, s)))
        .collect();
    let run = |(a, storage): (usize, StorageKind), faults: Option<FaultPlan>, what: &str| {
        let mut cfg = RunConfig::cell(storage, F2_WORKERS).with_seed(seed);
        cfg.faults = faults;
        run_workflow(wfs[a].clone(), cfg)
            .unwrap_or_else(|e| panic!("{what} {}/{storage:?} failed: {e}", apps[a]))
    };
    let cleans: Vec<CleanRun> = units
        .par_iter()
        .map(|&unit| {
            let stats = run(unit, None, "clean");
            CleanRun {
                unit,
                makespan_secs: stats.makespan_secs,
                cost_usd: segment_cost_usd(&stats),
                events: stats.events,
                segments: stats.faults.segments,
            }
        })
        .collect();
    let jobs: Vec<(&CleanRun, FaultScenario)> = cleans
        .iter()
        .flat_map(|c| FaultScenario::ALL.map(|sc| (c, sc)))
        .collect();
    let rows = jobs
        .par_iter()
        .map(|&(clean, scenario)| {
            let plan = scenario.plan(clean.makespan_secs);
            let stats = run(clean.unit, Some(plan), scenario.label());
            let cost = segment_cost_usd(&stats);
            let f = &stats.faults.counters;
            FaultRow {
                app: apps[clean.unit.0],
                storage: clean.unit.1,
                scenario,
                makespan_secs: stats.makespan_secs,
                clean_makespan_secs: clean.makespan_secs,
                inflation: stats.makespan_secs / clean.makespan_secs,
                cost_usd: cost,
                clean_cost_usd: clean.cost_usd,
                cost_inflation: cost / clean.cost_usd,
                node_crashes: f.node_crashes,
                spot_terminations: f.spot_terminations,
                storage_failures: f.storage_failures,
                tasks_killed: f.tasks_killed,
                rescue_resubmits: f.rescue_resubmits,
                files_lost: f.files_lost,
                wasted_task_secs: f.wasted_task_secs,
                bit_identical_to_clean: stats.makespan_secs.to_bits()
                    == clean.makespan_secs.to_bits()
                    && stats.events == clean.events
                    && stats.faults.segments == clean.segments,
            }
        })
        .collect();
    FaultStudy {
        seed,
        workers: F2_WORKERS,
        rows,
    }
}

/// Shape checks over the study (the F2 scoreboard entries).
pub fn check_f2(study: &FaultStudy) -> Vec<crate::ShapeCheck> {
    use FaultScenario::{NodeChurn, ServerFailure, ZeroRate};
    use StorageKind::{GlusterDistribute, Nfs, Pvfs, S3};
    let infl = |app, s, sc| {
        let v = study.row(app, s, sc).map(|r| r.inflation);
        (format!("{app} {s:?}"), v.unwrap_or(f64::NAN))
    };
    let clean = |v| ("clean".to_string(), v);
    let at = |r: &FaultRow, what: &str| format!("{}/{:?} {what}", r.app, r.storage);
    let rows = |sc| study.rows.iter().filter(move |r| r.scenario == sc);
    let diverged: Vec<String> = (rows(ZeroRate).filter(|r| !r.bit_identical_to_clean))
        .map(|r| at(r, "diverged"))
        .collect();
    let identical = Cmp::Fact(format!("diverged: {diverged:?}"), diverged.is_empty());
    let resident = |r: &&FaultRow| matches!(r.storage, GlusterDistribute | Pvfs);
    let lengthen = |r: &FaultRow| {
        let inflation = (at(r, r.scenario.label()), r.inflation);
        Cmp::new(Ratio, inflation, Ge, clean(1.0 - 1e-9))
    };
    let sf = |app, s| infl(app, s, ServerFailure);
    let nfs_worst =
        |app| [S3, GlusterDistribute].map(|s| Cmp::new(Ratio, sf(app, Nfs), Gt, sf(app, s)));
    let nc = |app, s| infl(app, s, NodeChurn);
    let s3_flat = |app| {
        [GlusterDistribute, Pvfs].map(|s| Cmp::new(Ratio, nc(app, S3), Le, nc(app, s)).times(1.02))
    };
    let churn: Vec<&FaultRow> = rows(NodeChurn).filter(|r| r.storage != Nfs).collect();
    let bill = |r: &&FaultRow| {
        let cost = (at(r, "cost"), r.cost_inflation);
        Cmp::new(Ratio, cost, Ge, clean(1.0 - 1e-9))
    };
    // Some bill rises: the costliest one does. A NaN bill, which `max`
    // skips here, fails its own `≥` comparison above.
    let costliest = churn.iter().map(|r| r.cost_inflation);
    let costliest = (
        "costliest".to_string(),
        costliest.fold(f64::NEG_INFINITY, f64::max),
    );
    let forfeits = Cmp::new(Ratio, costliest, Gt, clean(1.0 + 1e-9));
    vec![
        // Metamorphic: a zero-rate plan consumes no randomness and
        // schedules no events, so it must be bit-identical to no plan at
        // all.
        check(
            "f2.zero-rate-identical",
            "A FaultPlan with all rates zero is bit-identical to no plan",
            [identical],
        ),
        // On the worker-resident options every fault destroys data that
        // must be re-created, so no scenario may *shorten* the run. (NFS
        // is excluded on purpose: killing tasks relieves server
        // contention, and a contention-bound Broadband run can genuinely
        // speed up — the same physics as fig4's 2→4 node regression.)
        check(
            "f2.faults-lengthen",
            "Faults never shorten runs on worker-resident storage (lost data must be re-created)",
            (study.rows.iter().filter(resident))
                .filter(|r| r.scenario != ZeroRate)
                .map(lengthen),
        ),
        // The single-server option concentrates failure: when the storage
        // service dies, NFS stalls the whole run, while S3 shrugs and
        // GlusterFS only re-creates one peer's files.
        check(
            "f2.nfs-worst-server-failure",
            "NFS degrades worst under a storage-service failure (whole-run stall)",
            study.apps().into_iter().flat_map(nfs_worst),
        ),
        // S3 keeps data off the workers, so node churn costs it only the
        // killed executions — the worker-resident options must also
        // re-create the files that died with the node.
        check(
            "f2.s3-flattest-churn",
            "S3 inflates least under node churn (its data survives the crash)",
            study.apps().into_iter().flat_map(s3_flat),
        ),
        // §VI's billing model under churn: a crash forfeits the started
        // hour and the replacement opens a fresh one, so per-hour cost
        // never drops and genuinely rises somewhere. (NFS excluded again:
        // the contention relief can shave a whole billed hour off a
        // multi-hour run.)
        check(
            "f2.churn-wastes-hours",
            "Node churn never lowers the per-hour bill and forfeits started hours somewhere",
            churn.iter().map(bill).chain([forfeits]),
        ),
    ]
}

/// Render the study as an ASCII table.
pub fn render(study: &FaultStudy) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "F2 — FAULT INJECTION AND RECOVERY (seed {}, {} workers; makespan/cost vs clean run)",
        study.seed, study.workers
    );
    let _ = writeln!(
        s,
        "{:<11} {:<14} {:<12} {:>9} {:>7} {:>7} {:>6} {:>6} {:>7} {:>7}",
        "App",
        "Storage",
        "Scenario",
        "makespan",
        "infl",
        "cost",
        "kills",
        "rescue",
        "lost",
        "waste"
    );
    for r in &study.rows {
        let _ = writeln!(
            s,
            "{:<11} {:<14} {:<12} {:>8.0}s {:>6.2}x {:>6.2}x {:>6} {:>6} {:>7} {:>6.0}s",
            r.app.label(),
            r.storage.label(),
            r.scenario.label(),
            r.makespan_secs,
            r.inflation,
            r.cost_inflation,
            r.tasks_killed,
            r.rescue_resubmits,
            r.files_lost,
            r.wasted_task_secs,
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_plans_are_wired_to_the_right_class() {
        let t = 1000.0;
        assert_eq!(FaultScenario::ZeroRate.plan(t), FaultPlan::zero());
        let churn = FaultScenario::NodeChurn.plan(t);
        assert_eq!(
            churn.node_crash.as_ref().unwrap().scheduled,
            vec![(0, 250.0), (1, 500.0)]
        );
        assert!(churn.storage_failure.is_none() && churn.spot.is_none());
        let sf = FaultScenario::ServerFailure.plan(t);
        assert_eq!(sf.storage_failure.as_ref().unwrap().scheduled, vec![300.0]);
        let spot = FaultScenario::SpotMarket.plan(t);
        assert_eq!(spot.spot, Some(SpotSpec { rate_per_hour: 2.0 }));
    }

    #[test]
    fn study_lookup_and_render_cover_all_rows() {
        // A tiny in-memory study (no simulation) to exercise the
        // accessors and renderer.
        let row = |storage, scenario, inflation| FaultRow {
            app: App::Broadband,
            storage,
            scenario,
            makespan_secs: 100.0 * inflation,
            clean_makespan_secs: 100.0,
            inflation,
            cost_usd: 1.0,
            clean_cost_usd: 1.0,
            cost_inflation: 1.0,
            node_crashes: 0,
            spot_terminations: 0,
            storage_failures: 0,
            tasks_killed: 0,
            rescue_resubmits: 0,
            files_lost: 0,
            wasted_task_secs: 0.0,
            bit_identical_to_clean: scenario == FaultScenario::ZeroRate,
        };
        let study = FaultStudy {
            seed: 42,
            workers: 4,
            rows: vec![
                row(StorageKind::Nfs, FaultScenario::ZeroRate, 1.0),
                row(StorageKind::Nfs, FaultScenario::NodeChurn, 1.2),
            ],
        };
        assert!(study
            .row(App::Broadband, StorageKind::Nfs, FaultScenario::NodeChurn)
            .is_some());
        assert_eq!(study.apps(), vec![App::Broadband]);
        let text = render(&study);
        assert!(text.contains("node-churn"), "{text}");
    }
}
