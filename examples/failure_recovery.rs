//! Failure injection and DAGMan-style retries: what transient task
//! failures cost a Broadband run, and when the retry budget gives out.
//!
//! ```text
//! cargo run --release --example failure_recovery
//! ```

use ec2_workflow_sim::prelude::*;
use ec2_workflow_sim::wfengine::{run_workflow, FailureModel, FaultPlan, RunError};
use ec2_workflow_sim::wfgen::App;

fn main() {
    println!("Broadband (tiny instance) on GlusterFS(NUFA) @ 2 nodes\n");
    println!(
        "{:<22} {:>10} {:>9} {:>10}",
        "failure probability", "makespan", "retries", "outcome"
    );
    for prob in [0.0, 0.05, 0.15, 0.30, 0.50] {
        let mut cfg = RunConfig::cell(StorageKind::GlusterNufa, 2);
        cfg.faults = Some(FaultPlan::from_failure_model(FailureModel {
            prob,
            max_retries: 10,
        }));
        match run_workflow(App::Broadband.tiny_workflow(), cfg) {
            Ok(stats) => println!(
                "{:<22} {:>9.1}s {:>9} {:>10}",
                format!("{:.0}%", prob * 100.0),
                stats.makespan_secs,
                stats.retries,
                "completed"
            ),
            Err(RunError::RetriesExhausted { task }) => println!(
                "{:<22} {:>10} {:>9} {:>10}",
                format!("{:.0}%", prob * 100.0),
                "-",
                "-",
                format!("aborted at {task}")
            ),
            Err(e) => println!("unexpected error: {e}"),
        }
    }

    // A hopeless configuration: every attempt fails.
    let mut cfg = RunConfig::cell(StorageKind::GlusterNufa, 2);
    cfg.faults = Some(FaultPlan::from_failure_model(FailureModel {
        prob: 1.0,
        max_retries: 2,
    }));
    let err = run_workflow(App::Broadband.tiny_workflow(), cfg).unwrap_err();
    println!("\nwith p=100% the run aborts as expected: {err}");
}
