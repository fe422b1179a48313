//! Quickstart: build a small workflow, run it on a 2-node virtual cluster
//! with GlusterFS, and inspect the result.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ec2_workflow_sim::prelude::*;
use ec2_workflow_sim::wfdag::WorkflowBuilder;
use ec2_workflow_sim::wfengine::run_workflow;

fn main() {
    // A classic diamond workflow: split -> two parallel analyses -> join.
    // Files carry the data; edges are derived from producer/consumer
    // relationships (the paper's model of workflow data sharing, §I).
    let mut b = WorkflowBuilder::new("diamond");
    let raw = b.file("raw.dat", 200_000_000); // 200 MB input
    let left = b.file("left.dat", 80_000_000);
    let right = b.file("right.dat", 80_000_000);
    let l_out = b.file("left.out", 10_000_000);
    let r_out = b.file("right.out", 10_000_000);
    let summary = b.file("summary.txt", 1_000_000);

    b.task(
        "split",
        "splitter",
        5.0,
        512 << 20,
        vec![raw],
        vec![left, right],
    );
    b.task(
        "analyze_l",
        "analyzer",
        30.0,
        1 << 30,
        vec![left],
        vec![l_out],
    );
    b.task(
        "analyze_r",
        "analyzer",
        30.0,
        1 << 30,
        vec![right],
        vec![r_out],
    );
    b.task(
        "join",
        "joiner",
        8.0,
        512 << 20,
        vec![l_out, r_out],
        vec![summary],
    );
    let wf = b.build().expect("valid DAG");

    println!(
        "workflow: {} tasks, {} files, critical path {:.0}s of compute",
        wf.task_count(),
        wf.file_count(),
        ec2_workflow_sim::wfdag::critical_path_secs(&wf),
    );

    // Run it on two c1.xlarge workers sharing data through GlusterFS in
    // NUFA mode — the paper's all-round best performer.
    let cfg = RunConfig::cell(StorageKind::GlusterNufa, 2);
    let stats = run_workflow(wf, cfg).expect("run completes");

    println!(
        "makespan: {:.1}s over {} tasks",
        stats.makespan_secs, stats.tasks
    );
    println!(
        "I/O fraction: {:.1}% ({:.1}s I/O vs {:.1}s compute across slots)",
        stats.io_fraction() * 100.0,
        stats.total_io_secs,
        stats.total_cpu_secs
    );

    // What did it cost? Amazon billed by the hour in 2010, rounding up
    // each instance's lease on its own clock.
    for g in BillingGranularity::BOTH {
        println!("cost ({g:?}): ${:.3}", stats.cost(g).total_dollars());
    }
}
