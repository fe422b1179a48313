//! End-to-end integration: every application × every storage option runs
//! to completion through the full stack (generator → planner → scheduler
//! → storage → fluid-flow simulator → billing).

use ec2_workflow_sim::wfengine::{run_workflow, RunConfig, RunError, SchedulerPolicy};
use ec2_workflow_sim::wfgen::App;
use ec2_workflow_sim::wfstorage::StorageKind;

#[test]
fn every_app_runs_on_every_storage_tiny() {
    for app in App::ALL {
        for storage in StorageKind::ALL {
            for n in [1u32, 2, 4] {
                if !storage.admits(n) {
                    continue;
                }
                let stats = run_workflow(app.tiny_workflow(), RunConfig::cell(storage, n))
                    .unwrap_or_else(|e| panic!("{app}/{storage:?}/{n}: {e}"));
                assert_eq!(
                    stats.tasks,
                    app.tiny_workflow().task_count(),
                    "{app}/{storage:?}/{n}"
                );
                assert!(stats.makespan_secs > 0.0);
            }
        }
    }
}

#[test]
fn undeployable_pairs_are_errors_not_panics() {
    let wf = App::Epigenome.tiny_workflow();
    for storage in StorageKind::ALL {
        for workers in 0..=3u32 {
            let got = run_workflow(wf.clone(), RunConfig::cell(storage, workers));
            let what = format!("{storage:?} on {workers}");
            if storage.admits(workers) {
                got.unwrap_or_else(|e| panic!("{what}: {e}"));
                continue;
            }
            let err = got.expect_err(&what);
            assert_eq!(err, RunError::Undeployable { storage, workers }, "{what}");
            let msg = err.to_string();
            assert!(
                msg.contains(storage.label()) && msg.contains(&format!("{workers} worker(s)")),
                "{what}: {msg}"
            );
        }
    }
}

#[test]
fn runs_are_deterministic_across_processes_shapes() {
    // Same seed → identical makespan bits; different seed → (almost
    // surely) different jitter is *not* drawn here because the workflow
    // carries its own seed; the engine seed changes scheduling only.
    for storage in [
        StorageKind::Nfs,
        StorageKind::S3,
        StorageKind::GlusterDistribute,
    ] {
        let a = run_workflow(App::Broadband.tiny_workflow(), RunConfig::cell(storage, 2)).unwrap();
        let b = run_workflow(App::Broadband.tiny_workflow(), RunConfig::cell(storage, 2)).unwrap();
        assert_eq!(
            a.makespan_secs.to_bits(),
            b.makespan_secs.to_bits(),
            "{storage:?}"
        );
        assert_eq!(a.events, b.events, "{storage:?}");
        assert_eq!(a.op_stats, b.op_stats, "{storage:?}");
    }
}

#[test]
fn makespan_at_least_critical_path() {
    for app in App::ALL {
        let wf = app.tiny_workflow();
        let cp = ec2_workflow_sim::wfdag::critical_path_secs(&wf);
        let stats = run_workflow(wf, RunConfig::cell(StorageKind::Nfs, 4)).unwrap();
        assert!(
            stats.makespan_secs >= cp,
            "{app}: makespan {} < critical path {cp}",
            stats.makespan_secs
        );
    }
}

#[test]
fn data_aware_scheduler_never_loses_badly() {
    // The paper suggests data-aware scheduling should help (§IV.A); at
    // minimum it must not catastrophically regress.
    for storage in [StorageKind::S3, StorageKind::GlusterNufa] {
        let blind =
            run_workflow(App::Broadband.tiny_workflow(), RunConfig::cell(storage, 4)).unwrap();
        let mut cfg = RunConfig::cell(storage, 4);
        cfg.scheduler = SchedulerPolicy::DataAware;
        let aware = run_workflow(App::Broadband.tiny_workflow(), cfg).unwrap();
        assert!(
            aware.makespan_secs <= blind.makespan_secs * 1.15,
            "{storage:?}: aware {} vs blind {}",
            aware.makespan_secs,
            blind.makespan_secs
        );
    }
}

#[test]
fn paper_scale_epigenome_and_broadband_run_everywhere() {
    // The two smaller paper-scale workflows are fast enough to run in a
    // test; Montage at paper scale is covered by the repro harness.
    for app in [App::Epigenome, App::Broadband] {
        for storage in StorageKind::EVALUATED {
            let workers = if storage.admits(4) { 4 } else { 1 };
            let stats = run_workflow(app.paper_workflow(), RunConfig::cell(storage, workers))
                .unwrap_or_else(|e| panic!("{app}/{storage:?}: {e}"));
            assert!(
                stats.makespan_secs > 100.0,
                "{app}/{storage:?} suspiciously fast"
            );
        }
    }
}

#[test]
fn s3_write_once_discipline_holds_at_scale() {
    // Every output is PUT exactly once even when tasks run on many nodes.
    let stats = run_workflow(
        App::Broadband.paper_workflow(),
        RunConfig::cell(StorageKind::S3, 8),
    )
    .unwrap();
    let wf = App::Broadband.paper_workflow();
    let produced = wf
        .tasks()
        .iter()
        .map(|t| t.outputs.len() as u64)
        .sum::<u64>();
    assert_eq!(stats.billing.s3_puts, produced, "one PUT per produced file");
}

#[test]
fn adding_workers_never_hurts_scalable_storage() {
    // GlusterFS and S3 scale with the cluster; doubling workers should
    // never increase Broadband's makespan.
    for storage in [StorageKind::GlusterNufa, StorageKind::S3] {
        let mut prev = f64::INFINITY;
        for n in [2u32, 4, 8] {
            let stats =
                run_workflow(App::Broadband.paper_workflow(), RunConfig::cell(storage, n)).unwrap();
            assert!(
                stats.makespan_secs <= prev * 1.02,
                "{storage:?}@{n}: {} vs previous {prev}",
                stats.makespan_secs
            );
            prev = stats.makespan_secs;
        }
    }
}
