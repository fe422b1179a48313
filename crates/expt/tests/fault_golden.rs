//! Golden-file test for the task-attempt exporters under a fault: a tiny
//! Epigenome run on PVFS loses worker 0 to a scheduled crash while tasks
//! are in flight, the killed attempts retry, and the node comes back as a
//! second incarnation. The Chrome trace, the OTLP trace and the folded
//! storage stacks of that run must match the checked-in fixtures byte for
//! byte. Regenerate after an intentional change with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p expt --test fault_golden
//! ```

use wfengine::{otlp_labels, run_workflow, FaultPlan, NodeCrashSpec, RunConfig, RunStats};
use wfgen::App;
use wfobs::{ChromeLabels, ObsLevel};
use wfstorage::StorageKind;

const KIND: StorageKind = StorageKind::Pvfs;
const WORKERS: u32 = 2;

fn crash_run() -> (RunStats, wfdag::Workflow) {
    let wf = App::Epigenome.tiny_workflow();
    let clean = run_workflow(wf.clone(), RunConfig::cell(KIND, WORKERS)).expect("clean run");
    let mut cfg = RunConfig::cell(KIND, WORKERS)
        .with_seed(42)
        .with_obs(ObsLevel::Full);
    cfg.faults = Some(FaultPlan {
        node_crash: Some(NodeCrashSpec {
            rate_per_hour: 0.0,
            scheduled: vec![(0, 0.4 * clean.makespan_secs)],
            reprovision: true,
        }),
        max_fault_retries: 8,
        ..FaultPlan::default()
    });
    let stats = run_workflow(wf.clone(), cfg).expect("crash run recovers");
    assert_eq!(stats.faults.node_crashes, 1, "the scheduled crash fired");
    assert!(stats.faults.tasks_killed > 0, "tasks were in flight");
    (stats, wf)
}

fn check_golden(name: &str, got: &str) {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, got).expect("write golden fixture");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e}; run with UPDATE_GOLDEN=1"));
    assert!(
        got == want,
        "{name} drifted from {path}; rerun with UPDATE_GOLDEN=1 if intentional"
    );
}

#[test]
fn crash_cell_exports_match_golden() {
    let (stats, wf) = crash_run();
    let report = stats.obs.as_ref().expect("Full level records a report");
    let task_names: Vec<String> = wf.tasks().iter().map(|t| t.name.clone()).collect();

    let chrome = wfobs::chrome_trace(
        report,
        &ChromeLabels {
            task_names: task_names.clone(),
            node_names: Vec::new(),
        },
    );
    let otlp = wfobs::otlp_trace(report, &otlp_labels(&stats, &wf, KIND.label(), WORKERS));
    let folded = wfobs::folded_storage_stacks(report, &task_names, KIND.label());

    // The fixture must exercise the kill, retry and re-provision paths.
    assert!(chrome.contains("\"cat\":\"task-killed\""), "no killed span");
    assert!(otlp.contains("\"stringValue\":\"retry_of\""), "no retry link");
    assert!(
        otlp.contains("\"stringValue\":\"previous_incarnation\""),
        "no second node incarnation"
    );
    assert!(!folded.is_empty(), "no storage stacks");

    check_golden("crash_chrome.json", &chrome);
    check_golden("crash_otlp.json", &otlp);
    check_golden("crash_folded.txt", &folded);
}
