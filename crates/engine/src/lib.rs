//! # wfengine — the workflow management system
//!
//! Mirrors the paper's software stack (§III.A) inside the simulator:
//!
//! * a **planner** role is played by the per-storage job wrapping (S3 jobs
//!   get GET/PUT stage-in/out, POSIX jobs mount the shared file system);
//! * **DAGMan** becomes the dependency-release logic in [`driver`];
//! * the **Condor schedd** becomes the matchmaker: slot- and memory-aware,
//!   and — exactly as the paper notes (§IV.A) — blind to data locality
//!   (a [`SchedulerPolicy::DataAware`] variant implements the paper's
//!   suggested improvement as ablation A3).
//!
//! Entry point: [`run_workflow`].
//!
//! ```
//! use wfengine::{run_workflow, RunConfig};
//! use wfstorage::StorageKind;
//! use wfdag::WorkflowBuilder;
//!
//! let mut b = WorkflowBuilder::new("demo");
//! let f = b.file("data", 10_000_000);
//! b.task("gen", "gen", 1.0, 0, vec![], vec![f]);
//! let stats = run_workflow(b.build().unwrap(), RunConfig::cell(StorageKind::Nfs, 2)).unwrap();
//! assert_eq!(stats.tasks, 1);
//! assert!(stats.makespan_secs > 1.0);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod driver;
pub mod event;
pub mod exec;
mod exec_tests;
mod failures;
pub mod run;
pub mod trace;
pub mod world;

pub use config::{
    FailureModel, FaultPlan, NodeCrashSpec, RetryBackoff, RunConfig, SchedulerPolicy, SpotSpec,
    StorageFailureSpec,
};
pub use run::{run_workflow, run_workflow_with_obs, FaultSummary, ResourceRow, RunError, RunStats};
pub use trace::{
    jobstate_log, otlp_labels, phase_breakdown, phase_breakdown_from_bus, PhaseBreakdown,
};
pub use world::{FaultCounters, NodeSched, NodeSegment, TaskRecord, World};

#[cfg(test)]
mod tests {
    use super::*;
    use wfdag::WorkflowBuilder;
    use wfstorage::StorageKind;

    fn diamond(mb: u64) -> wfdag::Workflow {
        let mut b = WorkflowBuilder::new("diamond");
        let fin = b.file("in.dat", mb * 1_000_000);
        let f1 = b.file("f1.dat", mb * 1_000_000);
        let f2 = b.file("f2.dat", mb * 1_000_000);
        let f3 = b.file("f3.dat", mb * 1_000_000);
        let fout = b.file("out.dat", mb * 1_000_000);
        b.task("a", "gen", 2.0, 100 << 20, vec![fin], vec![f1, f2]);
        b.task("b", "lhs", 3.0, 100 << 20, vec![f1], vec![f3]);
        b.task("c", "rhs", 3.0, 100 << 20, vec![f2], vec![fout]);
        let f4 = b.file("out2.dat", mb * 1_000_000);
        b.task("d", "join", 1.0, 100 << 20, vec![f3], vec![f4]);
        b.build().unwrap()
    }

    #[test]
    fn diamond_runs_on_every_storage_kind() {
        for kind in StorageKind::ALL {
            let workers = if kind == StorageKind::Local { 1 } else { 2 };
            let stats = run_workflow(diamond(5), RunConfig::cell(kind, workers))
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(stats.tasks, 4, "{kind:?}");
            assert!(stats.makespan_secs > 0.0, "{kind:?}");
            // Compute alone is 2+max(3,3)+1 = 6 s on the critical path,
            // plus I/O and overhead.
            assert!(
                stats.makespan_secs >= 6.0,
                "{kind:?}: {}",
                stats.makespan_secs
            );
            assert!(
                stats.makespan_secs < 600.0,
                "{kind:?}: {}",
                stats.makespan_secs
            );
        }
    }

    #[test]
    fn determinism_across_runs() {
        let a = run_workflow(diamond(5), RunConfig::cell(StorageKind::GlusterNufa, 2)).unwrap();
        let b = run_workflow(diamond(5), RunConfig::cell(StorageKind::GlusterNufa, 2)).unwrap();
        assert_eq!(a.makespan_secs.to_bits(), b.makespan_secs.to_bits());
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn memory_limits_concurrency() {
        // 8 independent tasks of 3 GB on a 7 GB worker: at most 2 run at
        // once, so the makespan must exceed 4 × compute.
        let mut b = WorkflowBuilder::new("mem");
        for i in 0..8 {
            let f = b.file(format!("o{i}"), 1000);
            b.task(format!("t{i}"), "big", 10.0, 3 << 30, vec![], vec![f]);
        }
        let wf = b.build().unwrap();
        let stats = run_workflow(wf, RunConfig::cell(StorageKind::Nfs, 1)).unwrap();
        assert!(
            stats.makespan_secs >= 40.0,
            "memory limit ignored: {}",
            stats.makespan_secs
        );
    }

    #[test]
    fn oversized_task_is_rejected() {
        let mut b = WorkflowBuilder::new("huge");
        let f = b.file("o", 10);
        b.task("t", "huge", 1.0, 64 << 30, vec![], vec![f]);
        let err =
            run_workflow(b.build().unwrap(), RunConfig::cell(StorageKind::Nfs, 1)).unwrap_err();
        assert!(matches!(err, RunError::TaskTooLarge { .. }));
    }

    #[test]
    fn io_fraction_reflects_workload() {
        // A compute-heavy diamond should have a low I/O fraction.
        let stats = run_workflow(diamond(1), RunConfig::cell(StorageKind::GlusterNufa, 2)).unwrap();
        assert!(
            stats.io_fraction() < 0.5,
            "io_fraction={}",
            stats.io_fraction()
        );
        assert!(stats.total_cpu_secs >= 8.9, "{}", stats.total_cpu_secs);
    }

    #[test]
    fn records_are_consistent() {
        let stats = run_workflow(diamond(5), RunConfig::cell(StorageKind::S3, 2)).unwrap();
        for r in &stats.records {
            // Slot start, every phase start and slot end, in order.
            let instants: Vec<_> = [r.ready_at, r.start_at]
                .into_iter()
                .chain(r.phase_start)
                .chain([r.end_at])
                .collect();
            assert!(instants.windows(2).all(|w| w[0] <= w[1]), "{r:?}");
        }
        // Dependencies respected: task d starts after b ends.
        assert!(stats.records[3].start_at >= stats.records[1].end_at);
    }

    #[test]
    fn more_workers_do_not_slow_down_parallel_workload() {
        let mut b = WorkflowBuilder::new("wide");
        for i in 0..32 {
            let f = b.file(format!("o{i}"), 1_000_000);
            b.task(format!("t{i}"), "w", 5.0, 100 << 20, vec![], vec![f]);
        }
        let wf = b.build().unwrap();
        let two = run_workflow(wf.clone(), RunConfig::cell(StorageKind::GlusterNufa, 2)).unwrap();
        let four = run_workflow(wf, RunConfig::cell(StorageKind::GlusterNufa, 4)).unwrap();
        assert!(
            four.makespan_secs <= two.makespan_secs * 1.05,
            "4 workers ({}) slower than 2 ({})",
            four.makespan_secs,
            two.makespan_secs
        );
    }
}
