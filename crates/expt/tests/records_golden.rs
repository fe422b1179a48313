//! Golden-file test for the reports built from the per-task records:
//! the phase table (`render_phases`), the Pegasus-style jobstate log,
//! the node-occupancy Gantt chart, the bits of `total_io_secs`,
//! `total_cpu_secs` and `io_fraction`, and every record's lifecycle
//! instants in nanoseconds. Two runs are pinned:
//!
//! - a tiny Montage run on GlusterFS (NUFA) with 2 workers, seed 42;
//! - the crash run of `fault_golden`: a tiny Epigenome run on PVFS with
//!   2 workers, where worker 0 crashes at 0.4× the clean makespan and
//!   comes back, so killed attempts retry.
//!
//! Regenerate after an intentional change with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p expt --test records_golden
//! ```

mod common;

use common::check_golden;
use std::fmt::Write as _;
use wfengine::{
    jobstate_log, phase_breakdown, run_workflow, trace, FaultPlan, NodeCrashSpec, RunConfig,
    RunStats, TaskRecord,
};
use wfgen::App;
use wfstorage::StorageKind;

const WORKERS: u32 = 2;

/// A record's lifecycle instants in nanoseconds: ready, slot start, the
/// start of each phase (ops, stage-in, read, compute, write, stage-out)
/// and slot end.
fn instants(r: &TaskRecord) -> Vec<u64> {
    [r.ready_at, r.start_at]
        .into_iter()
        .chain(r.phase_start)
        .chain([r.end_at])
        .map(|t| t.as_nanos())
        .collect()
}

fn bits(s: &mut String, name: &str, v: f64) {
    let _ = writeln!(s, "{name:<15} {:#018x} {v}", v.to_bits());
}

fn render(stats: &RunStats, wf: &wfdag::Workflow) -> String {
    let mut s = String::new();
    bits(&mut s, "makespan_secs", stats.makespan_secs);
    bits(&mut s, "total_io_secs", stats.total_io_secs);
    bits(&mut s, "total_cpu_secs", stats.total_cpu_secs);
    bits(&mut s, "io_fraction", stats.io_fraction());
    s.push_str(&trace::render_phases(&phase_breakdown(stats)));
    s.push_str(&trace::render_gantt(stats, WORKERS, 60));
    let _ = writeln!(s, "JOBSTATE LOG");
    s.push_str(&jobstate_log(stats, wf));
    let _ = writeln!(
        s,
        "RECORDS (ns) — task node attempts ready start ops stage-in read compute write stage-out end"
    );
    for r in &stats.records {
        let _ = write!(s, "{} {} {}", r.task.0, r.node.0, r.attempts);
        for t in instants(r) {
            let _ = write!(s, " {t}");
        }
        s.push('\n');
    }
    s
}

#[test]
fn montage_records_match_golden() {
    let wf = App::Montage.tiny_workflow();
    let cfg = RunConfig::cell(StorageKind::GlusterNufa, WORKERS).with_seed(42);
    let stats = run_workflow(wf.clone(), cfg).expect("montage run succeeds");
    check_golden("fixtures/montage_records.txt", &render(&stats, &wf));
}

/// Every Gantt bucket of the pinned Montage run shows at most as many
/// busy slots as a c1.xlarge worker has, at the fixture's width and at a
/// finer one.
#[test]
fn gantt_never_exceeds_the_node_slots() {
    let slots = vcluster::InstanceType::C1Xlarge.cores();
    let cfg = RunConfig::cell(StorageKind::GlusterNufa, WORKERS).with_seed(42);
    let stats = run_workflow(App::Montage.tiny_workflow(), cfg).expect("montage run succeeds");
    for width in [60, 600] {
        let gantt = trace::render_gantt(&stats, WORKERS, width);
        for line in gantt.lines().skip(1) {
            let row = line.split('|').nth(1).expect("a node row");
            assert!(
                row.chars()
                    .all(|c| c == '.' || c.to_digit(10).is_some_and(|d| d <= slots)),
                "more than {slots} busy slots at width {width}: {line}"
            );
        }
    }
}

#[test]
fn crash_records_match_golden() {
    let kind = StorageKind::Pvfs;
    let wf = App::Epigenome.tiny_workflow();
    let clean = run_workflow(wf.clone(), RunConfig::cell(kind, WORKERS)).expect("clean run");
    let mut cfg = RunConfig::cell(kind, WORKERS).with_seed(42);
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
    assert!(
        stats.records.iter().any(|r| r.attempts > 1),
        "a killed attempt retried"
    );
    check_golden("fixtures/crash_records.txt", &render(&stats, &wf));
}
