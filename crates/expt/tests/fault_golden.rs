//! Golden-file tests for the task-attempt exporters on every attempt
//! outcome:
//!
//! - a tiny Epigenome run on PVFS loses worker 0 to a scheduled crash
//!   while tasks are in flight, the killed attempts retry, and the node
//!   comes back as a second incarnation (`killed`);
//! - a tiny Epigenome run on GlusterFS (NUFA) with transient task
//!   failures, where failed executions retry and succeed (`failed`);
//! - a hand-built stream that ends with two attempts still open on one
//!   node, started in descending task id after an earlier attempt freed
//!   its sublane (`unfinished`, close order and lane reuse).
//!
//! The Chrome trace, the OTLP trace and the folded storage stacks (plus,
//! for the crash run, the metrics CSV and the OTLP metrics document, and
//! for the truncated stream, one TUI frame) must match the checked-in
//! fixtures byte for byte. Regenerate after an intentional change with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p expt --test fault_golden
//! ```

use wfengine::{
    otlp_labels, run_workflow, FailureModel, FaultPlan, NodeCrashSpec, RunConfig, RunStats,
};
use wfgen::App;
use wfobs::{
    render_frame, ChromeLabels, Event, ObsHandle, ObsLevel, ObsReport, OpKind, OtlpLabels, Phase,
    TuiConfig, TuiState,
};
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
    assert_eq!(
        stats.faults.counters.node_crashes, 1,
        "the scheduled crash fired"
    );
    assert!(
        stats.faults.counters.tasks_killed > 0,
        "tasks were in flight"
    );
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
    let labels = otlp_labels(&stats, &wf, KIND.label(), WORKERS);
    let otlp = wfobs::otlp_trace(report, &labels);
    let folded = wfobs::folded_storage_stacks(report, &task_names, KIND.label());
    let metrics_csv = report.metrics.to_csv();
    let otlp_metrics = wfobs::otlp_metrics(report, &labels);

    // The fixture must exercise the kill, retry and re-provision paths.
    assert!(chrome.contains("\"cat\":\"task-killed\""), "no killed span");
    assert!(
        otlp.contains("\"stringValue\":\"retry_of\""),
        "no retry link"
    );
    assert!(
        otlp.contains("\"stringValue\":\"previous_incarnation\""),
        "no second node incarnation"
    );
    assert!(!folded.is_empty(), "no storage stacks");
    assert!(
        metrics_csv.contains("counter,tasks_killed,value,"),
        "no kill counter"
    );
    assert!(
        otlp_metrics.contains("\"name\":\"wf.faults_node_crash\""),
        "no crash counter"
    );

    check_golden("crash_chrome.json", &chrome);
    check_golden("crash_otlp.json", &otlp);
    check_golden("crash_folded.txt", &folded);
    check_golden("crash_metrics.csv", &metrics_csv);
    check_golden("crash_otlp_metrics.json", &otlp_metrics);
}

fn failure_run() -> (RunStats, wfdag::Workflow) {
    let wf = App::Epigenome.tiny_workflow();
    let mut cfg = RunConfig::cell(StorageKind::GlusterNufa, WORKERS)
        .with_seed(42)
        .with_obs(ObsLevel::Full);
    cfg.faults = Some(FaultPlan {
        task_failures: Some(FailureModel {
            prob: 0.25,
            max_retries: 8,
        }),
        ..FaultPlan::default()
    });
    let stats = run_workflow(wf.clone(), cfg).expect("failed executions retry and succeed");
    assert!(stats.retries > 0, "some execution failed");
    (stats, wf)
}

#[test]
fn transient_failure_cell_exports_match_golden() {
    let (stats, wf) = failure_run();
    let report = stats.obs.as_ref().expect("Full level records a report");
    let task_names: Vec<String> = wf.tasks().iter().map(|t| t.name.clone()).collect();
    let backend = StorageKind::GlusterNufa.label();

    let chrome = wfobs::chrome_trace(
        report,
        &ChromeLabels {
            task_names: task_names.clone(),
            node_names: Vec::new(),
        },
    );
    let otlp = wfobs::otlp_trace(report, &otlp_labels(&stats, &wf, backend, WORKERS));
    let folded = wfobs::folded_storage_stacks(report, &task_names, backend);

    assert!(chrome.contains("\"cat\":\"task-failed\""), "no failed span");
    assert!(
        otlp.contains("\"stringValue\":\"failed\""),
        "no failed outcome"
    );
    assert!(
        otlp.contains("\"stringValue\":\"retry_of\""),
        "no retry link"
    );
    assert!(!folded.is_empty(), "no storage stacks");

    check_golden("failure_chrome.json", &chrome);
    check_golden("failure_otlp.json", &otlp);
    check_golden("failure_folded.txt", &folded);
}

/// A stream cut off mid-run. On node 0, task 7 starts on sublane 0 and
/// task 5 on sublane 1; task 7 finishes, and task 2 (a retry) takes the
/// freed sublane 0. The stream then ends with tasks 5 and 2 still open,
/// so the exporters close them as unfinished, in ascending task id.
fn truncated_report() -> ObsReport {
    const MS: u64 = 1_000_000;
    let h = ObsHandle::new(ObsLevel::Full, 5);
    let start = |task, attempt| Event::TaskStart {
        task,
        node: 0,
        attempt,
    };
    let phase = |task, phase| Event::TaskPhase {
        task,
        node: 0,
        phase,
    };
    let script: Vec<(u64, Event)> = vec![
        (
            0,
            Event::SegmentOpen {
                node: 0,
                spot: false,
            },
        ),
        (0, start(7, 0)),
        (0, start(5, 0)),
        (250 * MS, phase(7, Phase::StageIn)),
        (250 * MS, phase(5, Phase::Read)),
        (
            300 * MS,
            Event::StorageOp {
                op: OpKind::Read,
                node: 0,
                bytes: 1 << 20,
            },
        ),
        (1_000 * MS, phase(7, Phase::Compute)),
        (2_000 * MS, phase(7, Phase::Write)),
        (
            2_500 * MS,
            Event::TaskEnd {
                task: 7,
                node: 0,
                attempt: 0,
            },
        ),
        (2_500 * MS, start(2, 1)),
        (2_750 * MS, phase(2, Phase::StageIn)),
        (3_000 * MS, phase(5, Phase::Compute)),
        (3_500 * MS, phase(2, Phase::Read)),
        // Moves the stream clock past the last task event.
        (4_000 * MS, Event::BgDone),
    ];
    for (t, ev) in script {
        h.set_now(t);
        h.emit(ev);
    }
    h.take_report().expect("Full level records a report")
}

#[test]
fn truncated_stream_exports_match_golden() {
    let report = truncated_report();
    let task_names: Vec<String> = (0..8).map(|i| format!("job{i}")).collect();
    let node_names = vec!["w0".to_owned()];

    let chrome = wfobs::chrome_trace(
        &report,
        &ChromeLabels {
            task_names: task_names.clone(),
            node_names: node_names.clone(),
        },
    );
    let otlp = wfobs::otlp_trace(
        &report,
        &OtlpLabels {
            service_name: "wfsim".to_owned(),
            run_name: "truncated".to_owned(),
            storage: "nfs".to_owned(),
            workers: 1,
            task_names: task_names.clone(),
            node_names: node_names.clone(),
            segments: Vec::new(),
        },
    );
    let folded = wfobs::folded_storage_stacks(&report, &task_names, "nfs");
    let mut tui = TuiState::new(TuiConfig {
        title: "truncated".to_owned(),
        backend: "nfs".to_owned(),
        total_tasks: 8,
        task_names,
        node_names,
        window_secs: 8.0,
        ..TuiConfig::default()
    });
    for (t, ev) in &report.events {
        tui.apply(*t, ev);
    }
    tui.tick(4_000_000_000);
    let frame = render_frame(&tui, 80, 12);

    assert_eq!(otlp.matches("\"stringValue\":\"unfinished\"").count(), 2);
    assert!(chrome.contains("\"name\":\"w0+1\""), "second sublane used");

    check_golden("truncated_chrome.json", &chrome);
    check_golden("truncated_otlp.json", &otlp);
    check_golden("truncated_folded.txt", &folded);
    check_golden("truncated_frame.txt", &frame);
}
