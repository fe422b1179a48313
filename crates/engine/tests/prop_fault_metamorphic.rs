//! Metamorphic property tests for the fault-injection subsystem.
//!
//! Two invariants, checked over randomly generated DAGs, storage options
//! and seeds:
//!
//! 1. **Zero-rate plans are invisible.** A [`FaultPlan`] whose every
//!    class is present but rated zero draws nothing from the fault RNG
//!    streams and schedules no events, so the run must be *bit-identical*
//!    to one with no plan at all — makespan bits, event counts, per-task
//!    records, retry counters and billing segments.
//! 2. **Post-finish faults are no-ops.** A node crash scheduled after the
//!    last task completes must change nothing: the simulation drains the
//!    stale event without side effects, and no counter or segment moves.
//!
//! Two more checks cover the kill path itself. A crash in the middle of
//! a run accounts for every flow exactly once (it lands or it is
//! cancelled, and cancels happen only at kill instants). A crash in the
//! middle of a task's input read cancels that read's flow.

use proptest::prelude::*;
use std::collections::BTreeSet;
use wfengine::{run_workflow, FaultPlan, NodeCrashSpec, RunConfig, RunStats};
use wfobs::{Event, ObsLevel, Phase};
use wfstorage::StorageKind;

/// Generation parameters of one task: compute seconds, output size, and
/// a parent-selection mask over earlier tasks.
#[derive(Debug, Clone, Copy)]
struct GenTask {
    cpu_ds: u16,
    out_mb: u8,
    parent_mask: u32,
}

fn gen_task() -> impl Strategy<Value = GenTask> {
    (1u16..50, 1u8..20, 0u32..=u32::MAX).prop_map(|(cpu_ds, out_mb, parent_mask)| GenTask {
        cpu_ds,
        out_mb,
        parent_mask,
    })
}

/// Build a random but well-formed DAG: task `i` consumes the outputs of
/// the earlier tasks its mask selects (plus a common input for roots).
fn build_workflow(tasks: &[GenTask]) -> wfdag::Workflow {
    let mut b = wfdag::WorkflowBuilder::new("prop");
    let root_in = b.file("in.dat", 2_000_000);
    let mut outs = Vec::new();
    for (i, t) in tasks.iter().enumerate() {
        let out = b.file(format!("f{i}.dat"), u64::from(t.out_mb) * 1_000_000);
        let parents: Vec<_> = (0..i)
            .filter(|j| t.parent_mask >> (j % 32) & 1 == 1)
            .map(|j| outs[j])
            .collect();
        let inputs = if parents.is_empty() {
            vec![root_in]
        } else {
            parents
        };
        b.task(
            format!("t{i}"),
            "w",
            f64::from(t.cpu_ds) / 10.0,
            128 << 20,
            inputs,
            vec![out],
        );
        outs.push(out);
    }
    b.build().expect("generated DAG is acyclic by construction")
}

const KINDS: [StorageKind; 6] = [
    StorageKind::Nfs,
    StorageKind::S3,
    StorageKind::GlusterNufa,
    StorageKind::GlusterDistribute,
    StorageKind::Pvfs,
    StorageKind::DirectTransfer,
];

fn run(
    tasks: &[GenTask],
    kind_ix: usize,
    workers: u32,
    seed: u64,
    plan: Option<FaultPlan>,
) -> RunStats {
    let mut cfg = RunConfig::cell(KINDS[kind_ix % KINDS.len()], workers)
        .with_seed(seed)
        .with_obs(wfobs::ObsLevel::Digest);
    cfg.faults = plan;
    run_workflow(build_workflow(tasks), cfg).expect("fault-free run succeeds")
}

/// Bit-level equality of everything a report serialises (event counts
/// are checked separately: a drained post-finish fault timer is still an
/// event, even though it has no observable effect).
fn assert_bit_identical(a: &RunStats, b: &RunStats) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        a.makespan_secs.to_bits(),
        b.makespan_secs.to_bits(),
        "makespan diverged: {} vs {}",
        a.makespan_secs,
        b.makespan_secs
    );
    prop_assert_eq!(a.retries, b.retries);
    prop_assert_eq!(&a.records, &b.records, "per-task records diverged");
    prop_assert_eq!(&a.faults.segments, &b.faults.segments, "segments diverged");
    prop_assert_eq!(
        a.total_io_secs.to_bits(),
        b.total_io_secs.to_bits(),
        "io seconds diverged"
    );
    // The run digest folds every observability event (with timestamps)
    // into one word: equality here means the full instrumented event
    // streams replayed identically, not just the summarised stats.
    prop_assert!(a.digest.is_some(), "digest missing at ObsLevel::Digest");
    prop_assert_eq!(a.digest, b.digest, "run digests diverged");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariant 1: present-but-zero fault plans change nothing.
    #[test]
    fn zero_rate_plan_is_bit_identical_to_no_plan(
        tasks in proptest::collection::vec(gen_task(), 1..10),
        kind_ix in 0usize..KINDS.len(),
        workers in 2u32..5,
        seed in 0u64..=u64::MAX,
    ) {
        let clean = run(&tasks, kind_ix, workers, seed, None);
        let zeroed = run(&tasks, kind_ix, workers, seed, Some(FaultPlan::zero()));
        assert_bit_identical(&clean, &zeroed)?;
        prop_assert_eq!(clean.events, zeroed.events, "zero-rate plan scheduled events");
        prop_assert_eq!(zeroed.faults.counters.node_crashes, 0);
        prop_assert_eq!(zeroed.faults.counters.tasks_killed, 0);
    }

    /// Invariant 2: a crash scheduled after the last task finishes is a
    /// pure no-op — same bits, no counters, no extra segments.
    #[test]
    fn crash_after_finish_changes_nothing(
        tasks in proptest::collection::vec(gen_task(), 1..10),
        kind_ix in 0usize..KINDS.len(),
        workers in 2u32..5,
        seed in 0u64..=u64::MAX,
        victim in 0u32..4,
        delay_ds in 1u32..1000,
    ) {
        let clean = run(&tasks, kind_ix, workers, seed, None);
        let mut plan = FaultPlan::zero();
        plan.node_crash = Some(NodeCrashSpec {
            rate_per_hour: 0.0,
            scheduled: vec![(
                victim % workers,
                clean.makespan_secs + f64::from(delay_ds) / 10.0,
            )],
            reprovision: true,
        });
        let late = run(&tasks, kind_ix, workers, seed, Some(plan));
        assert_bit_identical(&clean, &late)?;
        // The stale crash timer still drains through the event queue —
        // exactly one extra event, with no observable effect.
        prop_assert_eq!(late.events, clean.events + 1);
        prop_assert_eq!(late.faults.counters.node_crashes, 0, "post-finish crash counted");
        prop_assert_eq!(late.faults.counters.wasted_task_secs.to_bits(), 0.0f64.to_bits());
    }

    /// A mid-run crash accounts for every flow exactly once: each started
    /// flow either lands or is cancelled, never both, and every cancel
    /// happens at the instant of a kill.
    #[test]
    fn mid_run_crash_accounts_for_every_flow(
        tasks in proptest::collection::vec(gen_task(), 1..10),
        kind_ix in 0usize..KINDS.len(),
        workers in 2u32..5,
        seed in 0u64..=u64::MAX,
        victim in 0u32..4,
        at_permille in 1u32..1000,
    ) {
        let clean = run(&tasks, kind_ix, workers, seed, None);
        let at = clean.makespan_secs * f64::from(at_permille) / 1000.0;
        let crashed = run_full(&build_workflow(&tasks), kind_ix, workers, seed, victim % workers, at);
        let flows = FlowLedger::of(&crashed);
        prop_assert!(flows.ended.is_disjoint(&flows.cancelled), "a flow both landed and was cancelled");
        let accounted: BTreeSet<u64> = flows.ended.union(&flows.cancelled).copied().collect();
        prop_assert_eq!(&accounted, &flows.started, "started flows not accounted for");
        prop_assert!(
            flows.cancel_times.is_subset(&flows.kill_times),
            "cancel outside a kill: {:?} vs {:?}",
            flows.cancel_times,
            flows.kill_times
        );
    }
}

/// Run `wf` at obs `Full` with one crash of worker `victim` at `at`
/// seconds; the node is re-provisioned and killed executions retry.
fn run_full(
    wf: &wfdag::Workflow,
    kind_ix: usize,
    workers: u32,
    seed: u64,
    victim: u32,
    at: f64,
) -> RunStats {
    let mut plan = FaultPlan::zero();
    plan.max_fault_retries = 10;
    plan.node_crash = Some(NodeCrashSpec {
        rate_per_hour: 0.0,
        scheduled: vec![(victim, at)],
        reprovision: true,
    });
    let mut cfg = RunConfig::cell(KINDS[kind_ix % KINDS.len()], workers)
        .with_seed(seed)
        .with_obs(ObsLevel::Full);
    cfg.faults = Some(plan);
    run_workflow(wf.clone(), cfg).expect("a re-provisioned crash is survivable")
}

/// Flow ids by fate, and the instants of kills and cancels, from a
/// `Full`-level run.
struct FlowLedger {
    started: BTreeSet<u64>,
    ended: BTreeSet<u64>,
    cancelled: BTreeSet<u64>,
    kill_times: BTreeSet<u64>,
    cancel_times: BTreeSet<u64>,
}

impl FlowLedger {
    fn of(stats: &RunStats) -> Self {
        let mut l = FlowLedger {
            started: BTreeSet::new(),
            ended: BTreeSet::new(),
            cancelled: BTreeSet::new(),
            kill_times: BTreeSet::new(),
            cancel_times: BTreeSet::new(),
        };
        let report = stats.obs.as_ref().expect("Full level keeps the report");
        for &(t, ref ev) in &report.events {
            match *ev {
                Event::FlowStart { id, .. } => {
                    l.started.insert(id);
                }
                Event::FlowEnd { id } => {
                    l.ended.insert(id);
                }
                Event::FlowCancel { id } => {
                    l.cancelled.insert(id);
                    l.cancel_times.insert(t);
                }
                Event::TaskKilled { .. } => {
                    l.kill_times.insert(t);
                }
                _ => {}
            }
        }
        l
    }
}

/// A crash halfway through a task's read of a large, uncached input
/// kills the execution and cancels the read's flow: it never lands.
#[test]
fn crash_mid_read_cancels_the_read() {
    let mut b = wfdag::WorkflowBuilder::new("big-read");
    let input = b.file("in.dat", 2_000_000_000);
    let out = b.file("out.dat", 1_000_000);
    b.task("reader", "w", 1.0, 128 << 20, vec![input], vec![out]);
    let wf = b.build().expect("one task");
    let nfs = KINDS
        .iter()
        .position(|&k| k == StorageKind::Nfs)
        .expect("NFS");

    let cfg = RunConfig::cell(StorageKind::Nfs, 2).with_seed(42);
    let clean = run_workflow(wf.clone(), cfg).expect("clean run");
    let rec = clean.records[0];
    assert!(
        rec.secs(Some(Phase::Read)) > 1.0,
        "the read takes time: {}",
        rec.secs(Some(Phase::Read))
    );
    let mid = (rec.start_of(Phase::Read).as_secs_f64()
        + rec.start_of(Phase::Compute).as_secs_f64())
        / 2.0;

    // Workers are provisioned first, so a worker's node id is its index.
    let crashed = run_full(&wf, nfs, 2, 42, rec.node.0, mid);
    assert_eq!(crashed.faults.counters.tasks_killed, 1);
    let flows = FlowLedger::of(&crashed);
    assert!(!flows.cancelled.is_empty(), "the kill cancelled no flow");
    assert!(flows.ended.is_disjoint(&flows.cancelled));
    assert!(crashed.makespan_secs > clean.makespan_secs);
}
