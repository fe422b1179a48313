//! Fault injection and recovery: node crashes, storage failover, spot
//! termination, DAGMan-style backoff retries and the rescue-DAG pass.
//!
//! Every stochastic choice draws from a dedicated named RNG stream
//! (`engine.faults.*`), and zero-rate fault classes draw *nothing*, so a
//! present-but-all-zero [`FaultPlan`](crate::config::FaultPlan) is
//! bit-identical to running with no plan at all — the metamorphic
//! property `tests/prop_fault_metamorphic.rs` enforces.
//!
//! Kill mechanics: each task execution carries an epoch
//! ([`World::epoch`]); killing an execution bumps it, cancels the
//! execution's registered flows, and schedules a backoff re-queue. Stale
//! continuations of the dead execution compare epochs and no-op.

use crate::driver::{mark_ready, try_dispatch};
use crate::event::Ev;
use crate::world::{NodeSched, World};
use simcore::{Action, DetRng, Sim, SimDuration, SimTime};
use vcluster::{Cluster, NodeId};
use wfdag::TaskId;
use wfobs::{Event, FaultKind};
use wfstorage::FailoverResponse;

/// Sample an exponential inter-arrival time for a Poisson process with
/// the given hourly rate.
fn exp_secs(rng: &mut DetRng, rate_per_hour: f64) -> f64 {
    let u = rng.uniform(0.0, 1.0);
    -(1.0 - u).ln() / rate_per_hour * 3600.0
}

/// Arm the fault plan at the start of a run: schedule explicit fault
/// instants and sample the first stochastic arrival of each class.
pub(crate) fn install_faults(sim: &mut Sim<World>, world: &mut World) {
    let Some(plan) = world.cfg.faults.clone() else {
        return;
    };
    if let Some(nc) = &plan.node_crash {
        for &(ix, at) in &nc.scheduled {
            let ix = ix as usize;
            if ix >= world.node_up.len() {
                continue;
            }
            let incarnation = world.node_incarnation[ix];
            sim.post_at(
                SimTime::from_secs_f64(at),
                Ev::NodeCrash {
                    worker: ix as u32,
                    incarnation,
                },
            );
        }
        if nc.rate_per_hour > 0.0 {
            for ix in 0..world.node_up.len() {
                schedule_next_crash(sim, world, ix);
            }
        }
    }
    if let Some(sp) = &plan.spot {
        if sp.rate_per_hour > 0.0 {
            for ix in 0..world.node_up.len() {
                schedule_spot_termination(sim, world, ix, sp.rate_per_hour);
            }
        }
    }
    if let Some(sf) = &plan.storage_failure {
        for &at in &sf.scheduled {
            let victim = pick_storage_victim(world);
            sim.post_at(SimTime::from_secs_f64(at), Ev::StorageFailure(victim));
        }
        if sf.rate_per_hour > 0.0 {
            schedule_next_storage_failure(sim, world);
        }
    }
}

/// The node hosting the storage service: the dedicated server when one
/// exists (NFS), otherwise a worker peer sampled from the storage fault
/// stream (GlusterFS brick, PVFS I/O server).
fn pick_storage_victim(world: &mut World) -> NodeId {
    match world.cluster.server() {
        Some(s) => s,
        None => {
            let ix = world.fault_rng_storage.index(world.cluster.workers().len());
            world.cluster.workers()[ix]
        }
    }
}

fn schedule_next_crash(sim: &mut Sim<World>, world: &mut World, ix: usize) {
    let rate = world
        .cfg
        .faults
        .as_ref()
        .and_then(|p| p.node_crash.as_ref())
        .map_or(0.0, |n| n.rate_per_hour);
    if rate <= 0.0 {
        return;
    }
    let dt = exp_secs(&mut world.fault_rng_node[ix], rate);
    let incarnation = world.node_incarnation[ix];
    sim.post_in(
        SimDuration::from_secs_f64(dt),
        Ev::NodeCrash {
            worker: ix as u32,
            incarnation,
        },
    );
}

pub(crate) fn node_crash(sim: &mut Sim<World>, world: &mut World, ix: usize, incarnation: u32) {
    if world.run_over() {
        return; // post-run faults change nothing, and the sim drains
    }
    if world.node_incarnation[ix] != incarnation || !world.node_up[ix] {
        return; // stale event for an earlier incarnation
    }
    world.fault_counters.node_crashes += 1;
    world.obs.emit(Event::Fault {
        kind: FaultKind::NodeCrash,
        node: world.cluster.workers()[ix].0,
    });
    take_down_worker(sim, world, ix);
    let reprovision = world
        .cfg
        .faults
        .as_ref()
        .and_then(|p| p.node_crash.as_ref())
        .is_none_or(|n| n.reprovision);
    if reprovision {
        schedule_recovery(sim, world, ix);
    }
}

fn schedule_spot_termination(sim: &mut Sim<World>, world: &mut World, ix: usize, rate: f64) {
    if !world.node_spot[ix] {
        return;
    }
    let dt = exp_secs(&mut world.fault_rng_spot[ix], rate);
    let incarnation = world.node_incarnation[ix];
    sim.post_in(
        SimDuration::from_secs_f64(dt),
        Ev::SpotTermination {
            worker: ix as u32,
            incarnation,
        },
    );
}

pub(crate) fn spot_termination(
    sim: &mut Sim<World>,
    world: &mut World,
    ix: usize,
    incarnation: u32,
) {
    if world.run_over() {
        return;
    }
    if world.node_incarnation[ix] != incarnation || !world.node_up[ix] || !world.node_spot[ix] {
        return;
    }
    world.fault_counters.spot_terminations += 1;
    world.obs.emit(Event::Fault {
        kind: FaultKind::SpotTermination,
        node: world.cluster.workers()[ix].0,
    });
    take_down_worker(sim, world, ix);
    // The replacement is on-demand: recovery clears the spot flag, so
    // this node is never terminated by the market again.
    schedule_recovery(sim, world, ix);
}

/// Common crash/termination path: the instance dies, its in-flight
/// executions are killed (their slots die with the node), its billing
/// segment closes, and the storage layer hears about the lost peer.
fn take_down_worker(sim: &mut Sim<World>, world: &mut World, ix: usize) {
    let now = sim.now();
    world.node_up[ix] = false;
    world.node_incarnation[ix] += 1;
    let node_id = world.cluster.workers()[ix];
    for t in world.running[ix].clone() {
        // The slot vanishes with the node: no release.
        kill_task(sim, world, t, ix, false);
    }
    world.running[ix].clear();
    world.node_sched[ix].free_slots = 0;
    world.node_sched[ix].free_mem = 0;
    world.close_segment(node_id.index(), now);
    let resp = world.storage.on_node_failed(&world.cluster, node_id);
    apply_failover(sim, world, resp);
}

/// Re-provision a replacement instance after the §V boot delay.
fn schedule_recovery(sim: &mut Sim<World>, world: &mut World, ix: usize) {
    let delay = Cluster::boot_delay(&mut world.fault_rng_node[ix]);
    let incarnation = world.node_incarnation[ix];
    sim.post_in(
        delay,
        Ev::Recover {
            worker: ix as u32,
            incarnation,
        },
    );
}

/// The replacement instance is up: restore the worker's slots.
pub(crate) fn recover(sim: &mut Sim<World>, world: &mut World, ix: usize, incarnation: u32) {
    if world.run_over() {
        return;
    }
    if world.node_incarnation[ix] != incarnation || world.node_up[ix] {
        return;
    }
    let node_id = world.cluster.workers()[ix];
    let node = world.cluster.node(node_id);
    let sched = NodeSched {
        free_slots: node.slots(),
        free_mem: (node.memory_bytes() as f64 * 0.9) as u64,
    };
    world.node_up[ix] = true;
    world.node_spot[ix] = false;
    world.node_sched[ix] = sched;
    world.obs.emit(Event::NodeRecovered { node: node_id.0 });
    world.open_segment(node_id.index(), sim.now(), false);
    schedule_next_crash(sim, world, ix);
    try_dispatch(sim, world);
}

fn schedule_next_storage_failure(sim: &mut Sim<World>, world: &mut World) {
    let rate = world
        .cfg
        .faults
        .as_ref()
        .and_then(|p| p.storage_failure.as_ref())
        .map_or(0.0, |s| s.rate_per_hour);
    if rate <= 0.0 {
        return;
    }
    let dt = exp_secs(&mut world.fault_rng_storage, rate);
    sim.post_in(SimDuration::from_secs_f64(dt), Ev::StorageFailureArrival);
}

/// A sampled storage failure arrives: the victim is drawn now.
pub(crate) fn storage_failure_arrival(sim: &mut Sim<World>, world: &mut World) {
    if world.run_over() {
        return;
    }
    let victim = pick_storage_victim(world);
    storage_failure(sim, world, victim, true);
}

/// A storage *service* failure: the daemon on `victim` dies. The node's
/// compute capacity is unaffected (full node death is the node-crash
/// class, which also reports the failed peer to the storage layer);
/// per-backend consequences come from `StorageSystem::on_node_failed`.
pub(crate) fn storage_failure(
    sim: &mut Sim<World>,
    world: &mut World,
    victim: NodeId,
    resample: bool,
) {
    if world.run_over() {
        return;
    }
    let stalled = world.stall_until.is_some_and(|t| sim.now() < t);
    if !stalled {
        world.fault_counters.storage_failures += 1;
        world.obs.emit(Event::Fault {
            kind: FaultKind::StorageFailure,
            node: victim.0,
        });
        let resp = world.storage.on_node_failed(&world.cluster, victim);
        apply_failover(sim, world, resp);
    }
    if resample {
        schedule_next_storage_failure(sim, world);
    }
}

/// Apply a storage layer's failover verdict to the run.
fn apply_failover(sim: &mut Sim<World>, world: &mut World, resp: FailoverResponse) {
    match resp {
        FailoverResponse::Unaffected => {}
        FailoverResponse::StallAll => {
            // NFS semantics: every client call hangs until the server
            // recovers. In-flight executions die (their I/O times out);
            // nothing dispatches until the stall lifts.
            let recovery = world
                .cfg
                .faults
                .as_ref()
                .and_then(|p| p.storage_failure.as_ref())
                .map_or(60.0, |s| s.recovery_secs);
            let mut until = sim.now() + SimDuration::from_secs_f64(recovery);
            if let Some(t) = world.stall_until {
                if t > until {
                    until = t;
                }
            }
            world.stall_until = Some(until);
            for ix in 0..world.running.len() {
                if !world.node_up[ix] {
                    continue;
                }
                for t in world.running[ix].clone() {
                    kill_task(sim, world, t, ix, true);
                }
            }
            sim.post_at(until, Ev::StallLift);
        }
        FailoverResponse::LostFiles(files) => {
            world.any_files_lost = true;
            world.fault_counters.files_lost += files.len() as u64;
            world.obs.emit(Event::FilesLost {
                count: files.len() as u32,
            });
            for f in files {
                // Lost outputs become writable again for rescue re-runs.
                world.written.remove(&f);
                world.staged_out.remove(&f);
            }
        }
    }
}

/// The stall may be over: resume dispatch if no later failure extended it.
pub(crate) fn stall_lift(sim: &mut Sim<World>, world: &mut World) {
    if world.run_over() {
        return;
    }
    if world.stall_until.is_some_and(|t| sim.now() >= t) {
        world.stall_until = None;
        try_dispatch(sim, world);
    }
}

/// Kill one in-flight execution: bump its epoch (stale continuations
/// no-op), cancel its registered flows, charge the wasted work, and
/// re-queue it after backoff — or abort the run if the fault-retry
/// budget is exhausted.
pub(crate) fn kill_task(
    sim: &mut Sim<World>,
    world: &mut World,
    task: TaskId,
    worker_ix: usize,
    release_slot: bool,
) {
    let now = sim.now();
    let start_at = {
        let rec = &mut world.records[task.index()];
        rec.attempts += 1;
        rec.start_at
    };
    world.fault_counters.tasks_killed += 1;
    world.fault_counters.wasted_task_secs += now.since(start_at).as_secs_f64();
    world.obs.emit(Event::TaskKilled {
        task: task.0,
        node: world.cluster.workers()[worker_ix].0,
        wasted_nanos: now.since(start_at).as_nanos(),
    });
    world.epoch[task.index()] += 1;
    let mut stranded = None;
    for &id in world.inflight(task) {
        if let Some(Action::Event(Ev::LegDone(op))) = sim.cancel_flow(id) {
            stranded = Some(op);
        }
    }
    // A cancelled leg never lands, so its plan can never finish: free it
    // now. Its other pending events carry a stale reference and no-op.
    if let Some(op) = stranded {
        world.ops.close(op);
    }
    world.close_inflight(task);
    world.running[worker_ix].retain(|&t| t != task);
    if release_slot {
        world.release(worker_ix, task);
    }
    let budget = world.cfg.faults.as_ref().map_or(0, |p| p.max_fault_retries);
    finish_failure(sim, world, task, budget);
}

/// A transient execution failure at compute end (the original
/// [`FailureModel`](crate::config::FailureModel) path): the slot is
/// released cleanly, no flows are in flight.
pub(crate) fn fail_execution(
    sim: &mut Sim<World>,
    world: &mut World,
    task: TaskId,
    worker_ix: usize,
    budget: u32,
) {
    world.running[worker_ix].retain(|&t| t != task);
    world.release(worker_ix, task);
    world.close_inflight(task);
    world.epoch[task.index()] += 1;
    world.obs.emit(Event::TaskFailed {
        task: task.0,
        node: world.cluster.workers()[worker_ix].0,
    });
    finish_failure(sim, world, task, budget);
}

/// Shared failure tail: abort on budget exhaustion, else count the retry
/// and re-queue after exponential backoff.
fn finish_failure(sim: &mut Sim<World>, world: &mut World, task: TaskId, budget: u32) {
    if world.aborted.is_some() {
        return;
    }
    let attempts = world.records[task.index()].attempts;
    if attempts > budget {
        world.aborted = Some(task);
        // Drain the queue so the run winds down.
        world.ready.clear();
        return;
    }
    world.retries += 1;
    let delay = world
        .cfg
        .faults
        .as_ref()
        .map_or(SimDuration::ZERO, |p| p.backoff.delay(attempts));
    let epoch = world.epoch[task.index()];
    sim.post_in(delay, Ev::Requeue { task, epoch });
}

/// A failed execution's backoff has passed: the task is ready again.
pub(crate) fn requeue(sim: &mut Sim<World>, world: &mut World, task: TaskId, epoch: u32) {
    if world.aborted.is_some() || world.epoch[task.index()] != epoch {
        return;
    }
    mark_ready(sim, world, task);
    try_dispatch(sim, world);
}

/// Rescue-DAG check at ready time: if any input of `task` is gone, defer
/// `task`, resubmit the (finished) producers of the missing files and
/// re-prestage missing workflow inputs. Returns `true` if the task was
/// deferred. Cascades: a resubmitted producer runs through the same
/// check, so losses propagate up the DAG until reaching surviving data.
pub(crate) fn rescue_defer(sim: &mut Sim<World>, world: &mut World, task: TaskId) -> bool {
    let inputs = world.task_inputs(task);
    let mut missing = world.storage.missing_files(&inputs);
    if missing.is_empty() {
        return false;
    }
    missing.sort_unstable();
    missing.dedup();
    let mut producers: Vec<TaskId> = Vec::new();
    for f in missing {
        match world.wf.file(f).producer {
            Some(p) => {
                if !producers.contains(&p) {
                    producers.push(p);
                }
            }
            None => {
                // A workflow input: re-stage it from the submit host.
                let size = world.wf.file(f).size;
                world.storage.prestage(&world.cluster, &[(f, size)]);
            }
        }
    }
    if producers.is_empty() {
        return false; // everything missing was re-stageable
    }
    for p in producers {
        let waiters = world.rescue_waiters.entry(p).or_default();
        if !waiters.contains(&task) {
            waiters.push(task);
            world.pending_parents[task.index()] += 1;
        }
        if world.completed[p.index()] {
            world.completed[p.index()] = false;
            world.done -= 1;
            world.rescued.insert(p);
            world.fault_counters.rescue_resubmits += 1;
            world.obs.emit(Event::RescueResubmit { task: p.0 });
            mark_ready(sim, world, p);
        }
        // else: p is already being rescued (or re-running) — just wait.
    }
    true
}

#[cfg(test)]
mod tests {
    use crate::config::{
        FailureModel, FaultPlan, NodeCrashSpec, RetryBackoff, SpotSpec, StorageFailureSpec,
    };
    use crate::{run_workflow, RunConfig, RunError};
    use simcore::SimDuration;
    use wfdag::{Workflow, WorkflowBuilder};
    use wfobs::Phase;
    use wfstorage::StorageKind;

    fn chain(n: usize) -> Workflow {
        let mut b = WorkflowBuilder::new("chain");
        let mut prev = None;
        for i in 0..n {
            let out = b.file(format!("f{i}"), 5_000_000);
            let inputs = prev.map(|p| vec![p]).unwrap_or_default();
            b.task(format!("t{i}"), "step", 2.0, 128 << 20, inputs, vec![out]);
            prev = Some(out);
        }
        b.build().unwrap()
    }

    fn wide(n: usize, cpu_secs: f64) -> Workflow {
        let mut b = WorkflowBuilder::new("wide");
        for i in 0..n {
            let f = b.file(format!("o{i}"), 2_000_000);
            b.task(format!("t{i}"), "w", cpu_secs, 128 << 20, vec![], vec![f]);
        }
        b.build().unwrap()
    }

    #[test]
    fn retries_recover_from_transient_failures() {
        let mut cfg = RunConfig::cell(StorageKind::GlusterNufa, 2);
        cfg.faults = Some(FaultPlan::from_failure_model(FailureModel {
            prob: 0.3,
            max_retries: 50,
        }));
        let stats = run_workflow(chain(20), cfg).unwrap();
        assert_eq!(stats.tasks, 20, "all tasks complete despite failures");
        assert!(
            stats.retries > 0,
            "with p=0.3 over 20 tasks some retries occur"
        );
        // Retried tasks report attempts > 1.
        assert!(stats.records.iter().any(|r| r.attempts > 1));
    }

    #[test]
    fn retries_lengthen_the_makespan() {
        let clean = run_workflow(chain(20), RunConfig::cell(StorageKind::GlusterNufa, 2)).unwrap();
        let mut cfg = RunConfig::cell(StorageKind::GlusterNufa, 2);
        cfg.faults = Some(FaultPlan::from_failure_model(FailureModel {
            prob: 0.3,
            max_retries: 50,
        }));
        let faulty = run_workflow(chain(20), cfg).unwrap();
        assert!(
            faulty.makespan_secs > clean.makespan_secs,
            "failures must cost time: {} vs {}",
            faulty.makespan_secs,
            clean.makespan_secs
        );
    }

    #[test]
    fn exhausted_retries_abort_the_run() {
        let mut cfg = RunConfig::cell(StorageKind::GlusterNufa, 2);
        cfg.faults = Some(FaultPlan::from_failure_model(FailureModel {
            prob: 1.0, // every execution fails
            max_retries: 3,
        }));
        let err = run_workflow(chain(3), cfg).unwrap_err();
        assert!(matches!(err, RunError::RetriesExhausted { .. }), "{err}");
    }

    #[test]
    fn zero_probability_changes_nothing() {
        let clean = run_workflow(chain(10), RunConfig::cell(StorageKind::Nfs, 2)).unwrap();
        let mut cfg = RunConfig::cell(StorageKind::Nfs, 2);
        cfg.faults = Some(FaultPlan::from_failure_model(FailureModel {
            prob: 0.0,
            max_retries: 3,
        }));
        let with_model = run_workflow(chain(10), cfg).unwrap();
        assert_eq!(
            clean.makespan_secs.to_bits(),
            with_model.makespan_secs.to_bits()
        );
        assert_eq!(with_model.retries, 0);
        assert!(with_model.records.iter().all(|r| r.attempts == 1));
    }

    #[test]
    fn failure_runs_are_deterministic() {
        let run = || {
            let mut cfg = RunConfig::cell(StorageKind::S3, 2).with_seed(7);
            cfg.faults = Some(FaultPlan::from_failure_model(FailureModel {
                prob: 0.25,
                max_retries: 20,
            }));
            run_workflow(chain(15), cfg).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.makespan_secs.to_bits(), b.makespan_secs.to_bits());
        assert_eq!(a.retries, b.retries);
    }

    #[test]
    fn write_once_survives_retries() {
        // Failures happen before writes, so storage write-once asserts
        // must hold even with heavy retrying on S3 (PUT discipline).
        let mut cfg = RunConfig::cell(StorageKind::S3, 2);
        cfg.faults = Some(FaultPlan::from_failure_model(FailureModel {
            prob: 0.4,
            max_retries: 100,
        }));
        let stats = run_workflow(chain(20), cfg).unwrap();
        assert_eq!(stats.billing.s3_puts, 20, "exactly one PUT per output");
    }

    #[test]
    fn backoff_delays_grow_and_cap() {
        let b = RetryBackoff {
            base: SimDuration::from_secs(5),
            factor: 2.0,
            max: SimDuration::from_secs(300),
        };
        assert_eq!(b.delay(1), SimDuration::from_secs(5));
        assert_eq!(b.delay(2), SimDuration::from_secs(10));
        assert_eq!(b.delay(4), SimDuration::from_secs(40));
        assert_eq!(b.delay(10), SimDuration::from_secs(300), "capped");
        assert_eq!(b.delay(0), SimDuration::from_secs(5), "clamps at base");
    }

    #[test]
    fn backoff_pushes_retries_apart() {
        // With a huge backoff, a single transient failure costs at least
        // the backoff delay end-to-end.
        let clean = run_workflow(chain(5), RunConfig::cell(StorageKind::GlusterNufa, 2)).unwrap();
        let mut cfg = RunConfig::cell(StorageKind::GlusterNufa, 2);
        cfg.faults = Some(FaultPlan {
            task_failures: Some(FailureModel {
                prob: 0.5,
                max_retries: 50,
            }),
            backoff: RetryBackoff {
                base: SimDuration::from_secs(200),
                factor: 1.0,
                max: SimDuration::from_secs(200),
            },
            max_fault_retries: 50,
            ..FaultPlan::default()
        });
        let faulty = run_workflow(chain(5), cfg).unwrap();
        if faulty.retries > 0 {
            assert!(
                faulty.makespan_secs >= clean.makespan_secs + 200.0,
                "{} retries but makespan {} vs clean {}",
                faulty.retries,
                faulty.makespan_secs,
                clean.makespan_secs
            );
        }
    }

    fn crash_plan(scheduled: Vec<(u32, f64)>, budget: u32) -> FaultPlan {
        FaultPlan {
            node_crash: Some(NodeCrashSpec {
                rate_per_hour: 0.0,
                scheduled,
                reprovision: true,
            }),
            max_fault_retries: budget,
            ..FaultPlan::default()
        }
    }

    #[test]
    fn node_crash_kills_and_recovers() {
        let clean =
            run_workflow(wide(16, 60.0), RunConfig::cell(StorageKind::GlusterNufa, 2)).unwrap();
        let mut cfg = RunConfig::cell(StorageKind::GlusterNufa, 2);
        cfg.faults = Some(crash_plan(vec![(0, 2.0)], 10));
        let stats = run_workflow(wide(16, 60.0), cfg).unwrap();
        assert_eq!(stats.tasks, 16, "all tasks complete despite the crash");
        assert_eq!(stats.faults.counters.node_crashes, 1);
        assert!(
            stats.faults.counters.tasks_killed > 0,
            "tasks were in flight at 2 s"
        );
        assert!(stats.faults.counters.wasted_task_secs > 0.0);
        assert!(
            stats.makespan_secs > clean.makespan_secs,
            "crash + 70-90 s reboot must cost time: {} vs {}",
            stats.makespan_secs,
            clean.makespan_secs
        );
        // The crashed node came back: it has two billing segments.
        let segs = stats.faults.segments.len();
        assert!(segs >= 3, "2 workers, one crashed once: {segs} segments");
    }

    #[test]
    fn crash_without_reprovision_loses_capacity() {
        let mut cfg = RunConfig::cell(StorageKind::GlusterNufa, 2);
        let mut plan = crash_plan(vec![(1, 2.0)], 10);
        plan.node_crash.as_mut().unwrap().reprovision = false;
        cfg.faults = Some(plan);
        let stats = run_workflow(wide(16, 4.0), cfg).unwrap();
        assert_eq!(stats.tasks, 16);
        // Every record of the surviving executions sits on node 0.
        assert!(stats.records.iter().all(|r| r.node.0 == 0));
    }

    #[test]
    fn fault_retry_budget_exhaustion_aborts() {
        // Both workers crash mid-run with a zero fault-retry budget: the
        // first killed execution exhausts it and the run aborts.
        let mut cfg = RunConfig::cell(StorageKind::GlusterNufa, 2);
        cfg.faults = Some(crash_plan(vec![(0, 2.0), (1, 2.0)], 0));
        let err = run_workflow(wide(16, 4.0), cfg).unwrap_err();
        assert!(matches!(err, RunError::RetriesExhausted { .. }), "{err}");
    }

    #[test]
    fn crash_after_finish_changes_nothing() {
        let clean =
            run_workflow(wide(8, 4.0), RunConfig::cell(StorageKind::GlusterNufa, 2)).unwrap();
        let mut cfg = RunConfig::cell(StorageKind::GlusterNufa, 2);
        cfg.faults = Some(crash_plan(vec![(0, clean.makespan_secs + 50.0)], 10));
        let stats = run_workflow(wide(8, 4.0), cfg).unwrap();
        assert_eq!(stats.makespan_secs.to_bits(), clean.makespan_secs.to_bits());
        assert_eq!(
            stats.faults.counters.node_crashes, 0,
            "post-run crash is a no-op"
        );
        assert_eq!(stats.faults.segments, clean.faults.segments);
    }

    #[test]
    fn crash_runs_are_deterministic() {
        let run = || {
            let mut cfg = RunConfig::cell(StorageKind::GlusterDistribute, 4).with_seed(11);
            cfg.faults = Some(FaultPlan {
                node_crash: Some(NodeCrashSpec {
                    rate_per_hour: 20.0, // violent churn
                    scheduled: vec![],
                    reprovision: true,
                }),
                max_fault_retries: 40,
                ..FaultPlan::default()
            });
            run_workflow(chain(12), cfg).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.makespan_secs.to_bits(), b.makespan_secs.to_bits());
        assert_eq!(a.events, b.events);
        assert_eq!(
            a.faults.counters.node_crashes,
            b.faults.counters.node_crashes
        );
        assert_eq!(
            a.faults.counters.tasks_killed,
            b.faults.counters.tasks_killed
        );
        assert_eq!(a.faults.segments, b.faults.segments);
    }

    #[test]
    fn nfs_server_failure_stalls_the_run() {
        let clean = run_workflow(chain(8), RunConfig::cell(StorageKind::Nfs, 2)).unwrap();
        let mut cfg = RunConfig::cell(StorageKind::Nfs, 2);
        cfg.faults = Some(FaultPlan {
            storage_failure: Some(StorageFailureSpec {
                rate_per_hour: 0.0,
                scheduled: vec![clean.makespan_secs * 0.4],
                recovery_secs: 300.0,
            }),
            max_fault_retries: 10,
            ..FaultPlan::default()
        });
        let stats = run_workflow(chain(8), cfg).unwrap();
        assert_eq!(stats.faults.counters.storage_failures, 1);
        assert!(
            stats.makespan_secs >= clean.makespan_secs + 250.0,
            "a 300 s NFS outage must stall the whole run: {} vs {}",
            stats.makespan_secs,
            clean.makespan_secs
        );
    }

    #[test]
    fn gluster_brick_loss_triggers_rescue() {
        // Lose a brick mid-run on distribute: files on it vanish and the
        // rescue pass resubmits their producers.
        let clean = run_workflow(
            chain(12),
            RunConfig::cell(StorageKind::GlusterDistribute, 2),
        )
        .unwrap();
        let mut cfg = RunConfig::cell(StorageKind::GlusterDistribute, 2);
        cfg.faults = Some(FaultPlan {
            storage_failure: Some(StorageFailureSpec {
                rate_per_hour: 0.0,
                scheduled: vec![clean.makespan_secs * 0.5],
                recovery_secs: 0.0,
            }),
            max_fault_retries: 30,
            ..FaultPlan::default()
        });
        let stats = run_workflow(chain(12), cfg).unwrap();
        assert_eq!(stats.tasks, 12);
        assert!(
            stats.faults.counters.files_lost > 0,
            "the brick held chain files"
        );
        assert!(
            stats.faults.counters.rescue_resubmits > 0,
            "losing a mid-chain file forces producer resubmission"
        );
        assert!(stats.makespan_secs > clean.makespan_secs);
    }

    #[test]
    fn rescue_reuses_surviving_outputs() {
        // A fan-in: two producers on different bricks, one brick dies.
        // Only the lost producer re-runs; the surviving output is reused
        // (attempts stays 1 for at least one producer).
        let mut b = WorkflowBuilder::new("fanin");
        let fa = b.file("a", 4_000_000);
        let fb = b.file("bb", 4_000_000);
        let fc = b.file("c", 1_000_000);
        b.task("pa", "p", 2.0, 64 << 20, vec![], vec![fa]);
        b.task("pb", "p", 2.0, 64 << 20, vec![], vec![fb]);
        b.task("join", "j", 30.0, 64 << 20, vec![fa, fb], vec![fc]);
        let wf = b.build().unwrap();

        let mut cfg = RunConfig::cell(StorageKind::GlusterDistribute, 2);
        cfg.faults = Some(FaultPlan {
            node_crash: Some(NodeCrashSpec {
                rate_per_hour: 0.0,
                // Crash a worker while `join` computes: its inputs' bricks
                // may die; join is killed and rescued on retry.
                scheduled: vec![(0, 10.0)],
                reprovision: true,
            }),
            max_fault_retries: 20,
            ..FaultPlan::default()
        });
        let stats = run_workflow(wf, cfg).unwrap();
        assert_eq!(stats.tasks, 3);
        // Rescue only re-ran what was needed; the run completed without
        // write-once violations (reused outputs are never rewritten).
        if stats.faults.counters.files_lost > 0 && stats.faults.counters.rescue_resubmits > 0 {
            assert!(stats.faults.counters.rescue_resubmits <= 2);
        }
    }

    #[test]
    fn direct_transfer_crash_loses_files_only_that_node_held() {
        // `join` waits for the slow `pc`, so each producer's output sits
        // only on the node that wrote it until `join` stages it in. One of
        // those nodes crashes after `join` is dispatched elsewhere and
        // before its stage-in: the file is lost, the stage-in skips it,
        // the read fails the execution, and the rescue pass re-runs its
        // producer.
        let mut b = WorkflowBuilder::new("fanin");
        let fa = b.file("a", 4_000_000);
        let fb = b.file("bb", 4_000_000);
        let fc = b.file("c", 4_000_000);
        let out = b.file("out", 1_000_000);
        b.task("pa", "p", 2.0, 64 << 20, vec![], vec![fa]);
        b.task("pb", "p", 2.0, 64 << 20, vec![], vec![fb]);
        b.task("pc", "p", 60.0, 64 << 20, vec![], vec![fc]);
        b.task("join", "j", 2.0, 64 << 20, vec![fa, fb, fc], vec![out]);
        let wf = b.build().unwrap();

        let cell = || RunConfig::cell(StorageKind::DirectTransfer, 2);
        let clean = run_workflow(wf.clone(), cell()).unwrap();
        let join = clean.records[3];
        let producer = clean.records[..3].iter().find(|r| r.node != join.node);
        let victim = producer.expect("a producer ran on the other node").node;
        let at = (join.start_at.as_secs_f64() + join.start_of(Phase::StageIn).as_secs_f64()) / 2.0;
        let mut cfg = cell();
        // Workers are provisioned first, so a worker's node id is its index.
        cfg.faults = Some(crash_plan(vec![(victim.0, at)], 10));
        let stats = run_workflow(wf, cfg).unwrap();
        assert_eq!(stats.tasks, 4);
        assert!(stats.faults.counters.files_lost > 0, "the output was lost");
        assert!(stats.faults.counters.tasks_killed > 0, "join's read failed");
        assert!(
            stats.faults.counters.rescue_resubmits > 0,
            "the producer re-ran"
        );
        assert!(stats.makespan_secs > clean.makespan_secs);
    }

    #[test]
    fn spot_terminations_bill_spot_segments() {
        let mut cfg = RunConfig::cell(StorageKind::GlusterNufa, 2);
        cfg.faults = Some(FaultPlan {
            spot: Some(SpotSpec {
                rate_per_hour: 300.0, // mean time to revocation ~12 s
            }),
            max_fault_retries: 60,
            ..FaultPlan::default()
        });
        let stats = run_workflow(wide(24, 60.0), cfg).unwrap();
        assert_eq!(stats.tasks, 24);
        assert!(
            stats.faults.counters.spot_terminations > 0,
            "rate ~1/min must fire"
        );
        assert!(
            stats.faults.segments.iter().any(|s| s.spot),
            "initial worker segments are spot"
        );
        assert!(
            stats.faults.segments.iter().any(|s| !s.spot),
            "replacements are on-demand"
        );
    }

    #[test]
    fn zero_rate_plan_is_bit_identical_to_no_plan() {
        for kind in [
            StorageKind::Nfs,
            StorageKind::GlusterDistribute,
            StorageKind::S3,
        ] {
            let clean = run_workflow(chain(8), RunConfig::cell(kind, 2)).unwrap();
            let mut cfg = RunConfig::cell(kind, 2);
            cfg.faults = Some(FaultPlan::zero());
            let zero = run_workflow(chain(8), cfg).unwrap();
            assert_eq!(
                clean.makespan_secs.to_bits(),
                zero.makespan_secs.to_bits(),
                "{kind:?}"
            );
            assert_eq!(clean.events, zero.events, "{kind:?}");
            assert_eq!(clean.faults.segments, zero.faults.segments, "{kind:?}");
            assert_eq!(zero.faults.counters.tasks_killed, 0);
        }
    }
}
