//! OTLP exporter edge cases: a zero-task DAG, a single-node cluster, and
//! a run whose event stream ends mid-fault (rescue pending, replacement
//! node not yet up). Each must still produce a parseable, single-rooted
//! OTLP document and a stable digest.

use otlpcheck as decode;
use wfengine::{run_workflow, RunConfig, RunStats};
use wfobs::{Event, FaultKind, ObsHandle, ObsLevel, OpKind, OtlpLabels, Phase};
use wfstorage::StorageKind;

fn export(stats: &RunStats, wf: &wfdag::Workflow, workers: u32) -> String {
    let report = stats.obs.as_ref().expect("Full level records a report");
    let labels = wfengine::otlp_labels(stats, wf, StorageKind::GlusterNufa.label(), workers);
    wfobs::otlp_trace(report, &labels)
}

#[test]
fn zero_task_dag_exports_single_rooted_trace() {
    let wf = wfdag::WorkflowBuilder::new("empty")
        .build()
        .expect("empty workflow is well-formed");
    let cfg = RunConfig::cell(StorageKind::GlusterNufa, 2)
        .with_seed(7)
        .with_obs(ObsLevel::Full);
    let stats = run_workflow(wf.clone(), cfg.clone()).expect("zero-task run succeeds");
    assert_eq!(stats.makespan_secs, 0.0);
    assert_eq!(stats.tasks, 0);

    let json = export(&stats, &wf, 2);
    let trace = decode::trace(&json).expect("decodes");
    decode::check_well_formed(&trace).expect("well-formed");
    assert!(
        trace
            .spans
            .iter()
            .all(|s| s.attr("wf.task.outcome").is_none()),
        "no task spans in an empty run"
    );

    // Digest (and hence every derived id) is stable across replays.
    let again = run_workflow(wf.clone(), cfg).expect("zero-task run succeeds");
    assert_eq!(stats.digest, again.digest);
    assert_eq!(json, export(&again, &wf, 2));
}

#[test]
fn single_node_cluster_exports_well_formed_trace() {
    let mut b = wfdag::WorkflowBuilder::new("single");
    let fin = b.file("in.dat", 1_000_000);
    let f1 = b.file("f1.dat", 1_000_000);
    let f2 = b.file("f2.dat", 1_000_000);
    b.task("a", "gen", 1.0, 64 << 20, vec![fin], vec![f1]);
    b.task("b", "use", 2.0, 64 << 20, vec![f1], vec![f2]);
    let wf = b.build().unwrap();
    let cfg = RunConfig::cell(StorageKind::Nfs, 1)
        .with_seed(9)
        .with_obs(ObsLevel::Full);
    let stats = run_workflow(wf.clone(), cfg).expect("single-node run succeeds");

    let json = export(&stats, &wf, 1);
    let trace = decode::trace(&json).expect("decodes");
    decode::check_well_formed(&trace).expect("well-formed");
    let ok = trace
        .spans
        .iter()
        .filter(|s| s.attr("wf.task.outcome").and_then(|v| v.as_str()) == Some("ok"))
        .count();
    assert_eq!(ok, 2, "both tasks completed on the lone worker");
}

/// A stream that stops mid-recovery: a crash killed the task, the rescue
/// pass resubmitted it, but no replacement node came up before the end.
/// The exporter must close the dangling task/node spans at stream end
/// and still emit a parseable single-rooted document.
#[test]
fn stream_ending_mid_fault_still_exports() {
    let build = || {
        let h = ObsHandle::new(ObsLevel::Full, 11);
        h.set_now(0);
        h.emit(Event::SegmentOpen {
            node: 0,
            spot: false,
        });
        h.emit(Event::TaskStart {
            task: 0,
            node: 0,
            attempt: 0,
        });
        h.set_now(500_000_000);
        h.emit(Event::TaskPhase {
            task: 0,
            node: 0,
            phase: Phase::Read,
        });
        h.emit(Event::StorageOp {
            op: OpKind::Read,
            node: 0,
            bytes: 4_096,
        });
        h.set_now(900_000_000);
        h.emit(Event::Fault {
            kind: FaultKind::NodeCrash,
            node: 0,
        });
        h.emit(Event::TaskKilled {
            task: 0,
            node: 0,
            wasted_nanos: 900_000_000,
        });
        h.emit(Event::FilesLost { count: 2 });
        h.emit(Event::RescueResubmit { task: 1 });
        h.emit(Event::SegmentClose { node: 0 });
        // A second task was dispatched elsewhere and never finished.
        h.set_now(950_000_000);
        h.emit(Event::SegmentOpen {
            node: 1,
            spot: false,
        });
        h.emit(Event::TaskStart {
            task: 1,
            node: 1,
            attempt: 0,
        });
        // Stream ends here: rescue pending, node 1's segment still open.
        h.take_report().unwrap()
    };

    let report = build();
    let json = wfobs::otlp_trace(&report, &OtlpLabels::default());
    let trace = decode::trace(&json).expect("decodes");
    decode::check_well_formed(&trace).expect("well-formed mid-fault");

    let unfinished: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.attr("wf.task.outcome").and_then(|v| v.as_str()) == Some("unfinished"))
        .collect();
    assert_eq!(unfinished.len(), 1, "the dangling attempt is marked");
    assert_eq!(
        unfinished[0].end, 950_000_000,
        "dangling spans close at the last observed timestamp"
    );
    let root = trace
        .spans
        .iter()
        .find(|s| s.parent_span_id.is_empty())
        .unwrap();
    assert!(root.events.iter().any(|e| e.name == "rescue_resubmit"));
    assert!(root.events.iter().any(|e| e.name == "files_lost"));

    // Same synthetic stream → same digest → byte-identical export.
    let again = build();
    assert_eq!(report.digest, again.digest);
    assert_eq!(json, wfobs::otlp_trace(&again, &OtlpLabels::default()));
}
