//! The event bus is a second witness of the run. The phase breakdown
//! rebuilt purely from `TaskStart`/`TaskPhase`/`TaskEnd` events counts
//! every execution that ended `ok`; the record-based one counts each
//! task's last execution. The two agree to 1e-6 slot-seconds, slot by
//! slot, on every paper application and storage kind the bus is threaded
//! through, and under node churn that kills and retries executions. They
//! part only when the rescue pass re-runs a task that already finished:
//! the bus then counts both executions.

use wfengine::{
    phase_breakdown, phase_breakdown_from_bus, run_workflow, FaultPlan, NodeCrashSpec,
    PhaseBreakdown, RunConfig, RunStats,
};
use wfgen::App;
use wfobs::ObsLevel;
use wfstorage::StorageKind;

const KINDS: [StorageKind; 5] = [
    StorageKind::Nfs,
    StorageKind::S3,
    StorageKind::GlusterNufa,
    StorageKind::GlusterDistribute,
    StorageKind::Pvfs,
];

/// The record-based and the bus-based breakdowns of a Full-level run.
fn both(stats: &RunStats) -> (PhaseBreakdown, PhaseBreakdown) {
    let report = stats.obs.as_ref().expect("Full level records a report");
    (phase_breakdown(stats), phase_breakdown_from_bus(report))
}

fn assert_agree(ctx: &str, stats: &RunStats) {
    let (records, bus) = both(stats);
    for (slot, (a, b)) in PhaseBreakdown::slots().zip(records.secs.into_iter().zip(bus.secs)) {
        assert!(
            (a - b).abs() <= 1e-6,
            "{ctx} {slot:?}: records {a} vs bus {b}"
        );
    }
    assert!(
        (records.total() - bus.total()).abs() <= 1e-6,
        "{ctx} totals: {} vs {}",
        records.total(),
        bus.total()
    );
}

#[test]
fn bus_phase_totals_match_records_on_all_apps() {
    for app in [App::Montage, App::Epigenome, App::Broadband] {
        for kind in KINDS {
            let cfg = RunConfig::cell(kind, 2)
                .with_seed(42)
                .with_obs(ObsLevel::Full);
            let stats = run_workflow(app.tiny_workflow(), cfg)
                .unwrap_or_else(|e| panic!("{app:?}/{kind:?}: {e}"));
            assert_agree(&format!("{app:?}/{kind:?}"), &stats);
        }
    }
}

/// Tiny Montage on 3 workers, seed 7: workers 0 and 1 crash at 0.25×
/// and 0.5× the clean makespan and are reprovisioned.
fn churn_run(kind: StorageKind) -> RunStats {
    let wf = App::Montage.tiny_workflow();
    let base = RunConfig::cell(kind, 3).with_seed(7);
    let clean = run_workflow(wf.clone(), base.clone()).expect("clean run");
    let mut plan = FaultPlan::zero();
    plan.node_crash = Some(NodeCrashSpec {
        rate_per_hour: 0.0,
        scheduled: vec![
            (0, 0.25 * clean.makespan_secs),
            (1, 0.5 * clean.makespan_secs),
        ],
        reprovision: true,
    });
    plan.max_fault_retries = 16;
    let mut cfg = base.with_obs(ObsLevel::Full);
    cfg.faults = Some(plan);
    run_workflow(wf, cfg).unwrap_or_else(|e| panic!("{kind:?} churn run: {e}"))
}

/// Killed and retried executions count once on both sides: the bus
/// drops the killed ones, the records keep the retry.
#[test]
fn bus_phase_totals_match_records_under_node_churn() {
    for kind in [StorageKind::Nfs, StorageKind::S3] {
        let stats = churn_run(kind);
        let f = &stats.faults.counters;
        assert_eq!(f.node_crashes, 2, "{kind:?}: both crashes fired");
        assert!(
            f.tasks_killed > 0,
            "{kind:?}: the crashes killed executions"
        );
        assert_eq!(f.rescue_resubmits, 0, "{kind:?}: no file was lost");
        assert_agree(&format!("{kind:?} churn"), &stats);
    }
}

/// On PVFS a crashed worker takes its stripes with it, and the rescue
/// pass re-runs finished producers. The bus counts the first, superseded
/// execution as well as the re-run; the records keep only the re-run.
#[test]
fn bus_counts_superseded_executions_after_a_rescue_rerun() {
    let stats = churn_run(StorageKind::Pvfs);
    assert!(
        stats.faults.counters.rescue_resubmits > 0,
        "the crashes lost files and the rescue pass re-ran producers"
    );
    let (records, bus) = both(&stats);
    assert!(
        bus.total() > records.total() + 1.0,
        "bus {} vs records {}",
        bus.total(),
        records.total()
    );
}
