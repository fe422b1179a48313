//! Golden-frame tests: pin three rendered TUI frames for a tiny Montage
//! run with a scheduled node crash — a mid-run Gantt, the frame where
//! the fault ticker first shows the crash, and the final frame. The
//! renderer is wall-clock-free, so these are byte-stable across
//! machines; regenerate after an intentional event-stream or layout
//! change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p expt --test tui_golden
//! ```

mod common;

use common::check_golden;
use std::cell::RefCell;
use std::rc::Rc;

use wfengine::{run_workflow_with_obs, FaultPlan, NodeCrashSpec, RunConfig};
use wfgen::App;
use wfobs::{FrameSink, NodeRate, ObsHandle, ObsLevel, TuiConfig};
use wfstorage::StorageKind;

const COLS: usize = 100;
const ROWS: usize = 24;

fn captured_frames() -> Vec<(u64, String)> {
    let wf = App::Montage.tiny_workflow();
    let mut plan = FaultPlan::zero();
    plan.node_crash = Some(NodeCrashSpec {
        rate_per_hour: 0.0,
        scheduled: vec![(1, 40.0)],
        reprovision: true,
    });
    plan.max_fault_retries = 16;
    let mut cfg = RunConfig::cell(StorageKind::GlusterNufa, 3)
        .with_seed(42)
        .with_obs(ObsLevel::Digest);
    cfg.faults = Some(plan);

    let obs = ObsHandle::new(ObsLevel::Digest, cfg.seed);
    obs.set_tick_interval(2_000_000_000); // one frame per 2 simulated seconds
    let frames = Rc::new(RefCell::new(Vec::new()));
    obs.add_sink(Box::new(FrameSink::new(
        TuiConfig {
            title: wf.name.clone(),
            backend: "glusterfs-nufa".to_owned(),
            total_tasks: wf.task_count() as u32,
            task_names: wf.tasks().iter().map(|t| t.name.clone()).collect(),
            node_names: vec!["w0".into(), "w1".into(), "w2".into()],
            // c1.xlarge on-demand/spot rates, so cost-so-far is visible.
            node_rates: vec![
                NodeRate {
                    cents_per_hour: 68,
                    spot_cents_per_hour: 23,
                };
                3
            ],
            window_secs: 60.0,
            ..TuiConfig::default()
        },
        COLS,
        ROWS,
        100_000,
        Rc::clone(&frames),
    )));
    let stats = run_workflow_with_obs(wf, cfg, obs).expect("run succeeds");
    assert!(
        stats.faults.counters.node_crashes > 0,
        "the scheduled crash fired"
    );
    let captured = frames.borrow().clone();
    assert!(captured.len() > 10, "enough frames to choose from");
    captured
}

#[test]
fn golden_frames_are_stable() {
    let frames = captured_frames();

    // Mid-run: a busy Gantt before the crash lands.
    let mid = &frames[frames.len() / 3].1;
    assert!(mid.contains('#'), "mid frame shows compute cells:\n{mid}");
    check_golden("golden_frames/mid.txt", mid);

    // Fault: the first frame whose ticker shows the node crash.
    let fault = &frames
        .iter()
        .find(|(_, f)| f.contains("node_crash"))
        .expect("a frame captured the crash")
        .1;
    check_golden("golden_frames/fault.txt", fault);

    // Final: the flush-time frame, with every task accounted for.
    let last = &frames.last().expect("nonempty").1;
    assert!(
        last.contains("tasks 66/66"),
        "final frame shows completion:\n{last}"
    );
    check_golden("golden_frames/final.txt", last);
}

#[test]
fn frames_fit_requested_geometry() {
    for (t, frame) in captured_frames() {
        let lines: Vec<&str> = frame.split('\n').collect();
        assert_eq!(lines.len(), ROWS, "rows at t={t}");
        assert!(
            lines.iter().all(|l| l.chars().count() == COLS),
            "cols at t={t}"
        );
    }
}
