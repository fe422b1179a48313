//! The instrumentation is invisible to the simulation, and the flow
//! replay is exact, on a tiny workflow of every app over every valid
//! storage cell plus a node-crash cell.

use expt::Cell;
use perfbench::flows::{replay, FlowRec};
use perfbench::traced::run_decorated;
use wfengine::{run_workflow, FaultPlan, NodeCrashSpec, RunConfig};
use wfgen::App;
use wfobs::ObsLevel;
use wfstorage::StorageKind;

fn cells() -> Vec<(App, RunConfig)> {
    let mut out = Vec::new();
    for app in App::ALL {
        for kind in StorageKind::ALL {
            for workers in [1, 2] {
                if Cell::new(app, kind, workers).is_valid() {
                    out.push((app, RunConfig::cell(kind, workers)));
                }
            }
        }
        let clean = run_workflow(app.tiny_workflow(), RunConfig::cell(StorageKind::Pvfs, 2))
            .expect("clean tiny run");
        let mut crash = RunConfig::cell(StorageKind::Pvfs, 2);
        crash.faults = Some(FaultPlan {
            node_crash: Some(NodeCrashSpec {
                rate_per_hour: 0.0,
                scheduled: vec![(0, 0.4 * clean.makespan_secs)],
                reprovision: true,
            }),
            max_fault_retries: 8,
            ..FaultPlan::default()
        });
        out.push((app, crash));
    }
    out
}

#[test]
fn decorated_runs_match_run_workflow_and_replay_exactly() {
    let mut cancels = 0;
    for (app, cfg) in cells() {
        let cfg = cfg.with_obs(ObsLevel::Digest);
        let what = format!(
            "{app} {:?}@{} crash={}",
            cfg.storage,
            cfg.workers,
            cfg.faults.is_some()
        );
        let plain = run_workflow(app.tiny_workflow(), cfg.clone()).expect(&what);
        let traced = run_decorated(app.tiny_workflow(), cfg).expect(&what);
        assert_eq!(plain.digest, Some(traced.digest), "{what}: digest");
        assert_eq!(
            plain.makespan_secs.to_bits(),
            traced.makespan_secs.to_bits(),
            "{what}"
        );
        assert_eq!(plain.events, traced.events, "{what}: events");
        assert!(traced.storage.calls() > 0, "{what}: no planning calls seen");

        let r = replay(
            &traced.flow_log,
            &traced.capacities,
            traced.storage.caps.clone(),
        )
        .unwrap_or_else(|e| panic!("{what}: {e}"));
        r.check().unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(r.flows, traced.flows.0, "{what}: flows started");
        let recorded_cancels = traced
            .flow_log
            .iter()
            .filter(|f| matches!(f, FlowRec::Cancel { .. }))
            .count() as u64;
        assert_eq!(r.cancels, recorded_cancels, "{what}: cancels");
        cancels += r.cancels;
    }
    assert!(
        cancels > 0,
        "no cell cancelled a flow; the kill path went unreplayed"
    );
}
