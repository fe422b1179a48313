//! The workflow driver: DAGMan-like dependency release and Condor-like
//! dispatch, plus the per-job lifecycle
//! (stage-in → reads → compute → writes → stage-out).
//!
//! Fault injection (node crashes, storage failover, spot termination) and
//! the rescue-DAG recovery pass live in [`crate::failures`]; the driver's
//! part of the bargain is (a) every lifecycle continuation carries the
//! task's execution *epoch* and no-ops if the execution was killed, and
//! (b) writes skip outputs that survived on healthy nodes, so a rescue
//! re-run regenerates only what was actually lost.

use crate::event::{Ev, Job};
use crate::exec::exec_plan_guarded;
use crate::failures;
use crate::world::{TaskRecord, World};
use simcore::{Action, Sim, SimDuration, SimTime};
use vcluster::NodeId;
use wfdag::TaskId;
use wfobs::{Event, Phase};
use wfstorage::op::OpPlan;

/// How many queued jobs the matchmaker examines per cycle (backfill
/// window): a ready job that does not fit anywhere does not starve
/// smaller jobs behind it, but the scan stays bounded.
const BACKFILL_WINDOW: usize = 64;

/// Kick off the run: pre-stage inputs, arm the fault plan, release root
/// tasks, dispatch.
pub fn start_run(sim: &mut Sim<World>, world: &mut World) {
    let inputs = world.workflow_inputs();
    world.storage.prestage(&world.cluster, &inputs);
    if world.obs.enabled() {
        // The initial billing segments were opened in `World::new`,
        // before the bus was attached; replay them onto the bus so the
        // segment stream is complete.
        for (ix, segs) in world.node_segments.iter().enumerate() {
            if let Some(seg) = segs.last() {
                if seg.close.is_none() {
                    world.obs.emit(Event::SegmentOpen {
                        node: ix as u32,
                        spot: seg.spot,
                    });
                }
            }
        }
    }
    failures::install_faults(sim, world);
    for t in world.wf.roots() {
        mark_ready(sim, world, t);
    }
    try_dispatch(sim, world);
}

pub(crate) fn mark_ready(sim: &mut Sim<World>, world: &mut World, task: TaskId) {
    // Rescue-DAG pass: if an input was lost to a storage failure, defer
    // this task and resubmit the producers of the missing files.
    if world.any_files_lost && failures::rescue_defer(sim, world, task) {
        return;
    }
    world.ready.push_back(task);
    world.obs.emit(Event::TaskReady { task: task.0 });
    world.obs.emit(Event::ReadyDepth {
        depth: world.ready.len() as u32,
    });
    let rec = &mut world.records[task.index()];
    *rec = TaskRecord::new(task, sim.now(), rec.attempts);
}

/// One matchmaking cycle: dispatch every queued job (within the backfill
/// window) that fits on some node.
///
/// The window is examined in place: a dispatched job leaves the queue,
/// a job that fits nowhere keeps its place ahead of the untouched tail,
/// so one cycle costs O(window) however deep the queue is. The scan
/// stops early once no worker has a free slot, since `pick_node` then
/// answers `None` for every job without changing any state.
pub fn try_dispatch(sim: &mut Sim<World>, world: &mut World) {
    if let Some(t) = world.stall_until {
        // Storage is down and every client call hangs: nothing dispatches
        // until the service recovers.
        if sim.now() < t {
            return;
        }
        world.stall_until = None;
    }
    let mut open = world.any_free_slot();
    let mut pos = 0;
    let mut dispatched = 0u32;
    for _ in 0..BACKFILL_WINDOW.min(world.ready.len()) {
        if !open {
            break;
        }
        let task = world.ready[pos];
        match world.pick_node(task) {
            Some(i) => {
                world.ready.remove(pos);
                dispatch(sim, world, task, i);
                dispatched += 1;
                open = world.any_free_slot();
            }
            None => pos += 1,
        }
    }
    // Re-sample queue depth after the cycle, so depth decreases are
    // observable too (live ready-depth widgets track both edges).
    if dispatched > 0 {
        world.obs.emit(Event::ReadyDepth {
            depth: world.ready.len() as u32,
        });
    }
}

fn dispatch(sim: &mut Sim<World>, world: &mut World, task: TaskId, worker_ix: usize) {
    world.reserve(worker_ix, task);
    world.running[worker_ix].push(task);
    world.open_inflight(task);
    let epoch = world.epoch[task.index()];
    let node = world.cluster.workers()[worker_ix];
    let attempt = {
        let rec = &mut world.records[task.index()];
        rec.node = node;
        rec.start_at = sim.now();
        rec.attempts
    };
    world.obs.emit(Event::TaskStart {
        task: task.0,
        node: node.0,
        attempt,
    });
    // DAGMan/Condor per-job overhead is paid while holding the slot.
    let overhead = world.cfg.job_overhead;
    sim.post_in(overhead, Ev::Ops(Job::new(task, worker_ix, epoch)));
}

/// Enter a lifecycle phase: stamp its start on the task record and emit
/// the `TaskPhase` event.
fn enter_phase(world: &mut World, task: TaskId, node: NodeId, phase: Phase, now: SimTime) {
    world.records[task.index()].phase_start[phase as usize] = now;
    world.obs.emit(Event::TaskPhase {
        task: task.0,
        node: node.0,
        phase,
    });
}

/// Execute `plan` on behalf of `j`; `next` fires when it completes.
fn exec_job_plan(sim: &mut Sim<World>, world: &mut World, j: Job, plan: OpPlan, next: Ev) {
    exec_plan_guarded(
        sim,
        world,
        plan,
        Some((j.task, j.epoch)),
        Action::Event(next),
    );
}

/// The task's POSIX operation storm, charged to storage systems with a
/// central per-op bottleneck (NFS).
pub(crate) fn job_ops(sim: &mut Sim<World>, world: &mut World, j: Job) {
    if !world.live(j.task, j.epoch) {
        return;
    }
    let node = world.cluster.workers()[j.worker()];
    enter_phase(world, j.task, node, Phase::Ops, sim.now());
    let io_ops = world.wf.task(j.task).io_ops;
    let plan = world.storage.plan_task_ops(&world.cluster, node, io_ops);
    exec_job_plan(sim, world, j, plan, Ev::StageIn(j));
}

pub(crate) fn job_stage_in(sim: &mut Sim<World>, world: &mut World, j: Job) {
    if !world.live(j.task, j.epoch) {
        return;
    }
    let node = world.cluster.workers()[j.worker()];
    enter_phase(world, j.task, node, Phase::StageIn, sim.now());
    let inputs = world.task_inputs(j.task);
    let plan = world.storage.plan_stage_in(&world.cluster, node, &inputs);
    exec_job_plan(sim, world, j, plan, Ev::Read(j, 0));
}

pub(crate) fn job_read(sim: &mut Sim<World>, world: &mut World, j: Job, idx: usize) {
    if !world.live(j.task, j.epoch) {
        return;
    }
    let node = world.cluster.workers()[j.worker()];
    if idx == 0 {
        enter_phase(world, j.task, node, Phase::Read, sim.now());
    }
    // Only the one input this step reads is looked up: a fan-in task
    // with n inputs costs O(n) over all its reads, not O(n²).
    let Some(input) = world.task_input(j.task, idx) else {
        job_compute(sim, world, j);
        return;
    };
    // An input can vanish *after* dispatch (a brick died under us): the
    // execution fails like a crashed one and the retry's rescue pass
    // resubmits the producer.
    if world.any_files_lost && !world.storage.missing_files(&[input]).is_empty() {
        failures::kill_task(sim, world, j.task, j.worker(), true);
        return;
    }
    let plan = world.storage.plan_read(&world.cluster, node, input);
    exec_job_plan(sim, world, j, plan, Ev::Read(j, idx as u32 + 1));
}

fn job_compute(sim: &mut Sim<World>, world: &mut World, j: Job) {
    let node = world.cluster.workers()[j.worker()];
    let speed = world.cluster.node(node).itype.core_speed();
    let dur = SimDuration::from_secs_f64(world.wf.task(j.task).cpu_secs / speed);
    enter_phase(world, j.task, node, Phase::Compute, sim.now());
    sim.post_in(dur, Ev::ComputeEnd(j));
}

pub(crate) fn job_compute_end(sim: &mut Sim<World>, world: &mut World, j: Job) {
    if !world.live(j.task, j.epoch) {
        return;
    }
    world.records[j.task.index()].attempts += 1;
    // Transient-failure injection (before any output is written, so
    // the write-once discipline survives the retry). Zero-probability
    // models draw nothing, keeping a zero-rate plan bit-identical to
    // no plan at all.
    let fm = world.cfg.faults.as_ref().and_then(|p| p.task_failures);
    if let Some(fm) = fm {
        if fm.prob > 0.0 && world.fault_rng_task.chance(fm.prob) {
            failures::fail_execution(sim, world, j.task, j.worker(), fm.max_retries);
            return;
        }
    }
    let node = world.cluster.workers()[j.worker()];
    enter_phase(world, j.task, node, Phase::Write, sim.now());
    job_write(sim, world, j, 0);
}

pub(crate) fn job_write(sim: &mut Sim<World>, world: &mut World, j: Job, idx: usize) {
    if !world.live(j.task, j.epoch) {
        return;
    }
    let Some(output) = world.task_output(j.task, idx) else {
        job_stage_out(sim, world, j);
        return;
    };
    // Skip outputs this workflow already wrote: a retry of an execution
    // killed mid-write must not write twice, and a rescue re-run reuses
    // outputs that survived on healthy nodes (failover removed only the
    // lost ones from `written`).
    if !world.written.insert(output.0) {
        job_write(sim, world, j, idx + 1);
        return;
    }
    let node = world.cluster.workers()[j.worker()];
    let plan = world.storage.plan_write(&world.cluster, node, output);
    exec_job_plan(sim, world, j, plan, Ev::Write(j, idx as u32 + 1));
}

fn job_stage_out(sim: &mut Sim<World>, world: &mut World, j: Job) {
    if !world.live(j.task, j.epoch) {
        return;
    }
    let node = world.cluster.workers()[j.worker()];
    enter_phase(world, j.task, node, Phase::StageOut, sim.now());
    // Only stage out (and bill) each output once, even across retries.
    let (wf, staged_out) = (&world.wf, &mut world.staged_out);
    let outputs: Vec<_> = wf
        .task(j.task)
        .outputs
        .iter()
        .filter(|&&f| staged_out.insert(f))
        .map(|&f| (f, wf.file(f).size))
        .collect();
    let plan = world.storage.plan_stage_out(&world.cluster, node, &outputs);
    exec_job_plan(sim, world, j, plan, Ev::Done(j));
}

pub(crate) fn job_done(sim: &mut Sim<World>, world: &mut World, j: Job) {
    if !world.live(j.task, j.epoch) {
        return;
    }
    let (task, worker_ix) = (j.task, j.worker());
    world.release(worker_ix, task);
    world.running[worker_ix].retain(|&t| t != task);
    world.close_inflight(task);
    let attempt = {
        let rec = &mut world.records[task.index()];
        rec.end_at = sim.now();
        rec.attempts
    };
    world.obs.emit(Event::TaskEnd {
        task: task.0,
        node: world.cluster.workers()[worker_ix].0,
        attempt,
    });
    world.completed[task.index()] = true;
    world.done += 1;
    if world.done == world.wf.task_count() {
        world.finished_at = Some(sim.now());
    }
    if world.rescued.remove(&task) {
        // A rescue re-run releases only the tasks that were deferred on
        // it — its original children already ran.
        let waiters = world.rescue_waiters.remove(&task).unwrap_or_default();
        for w in waiters {
            let p = &mut world.pending_parents[w.index()];
            debug_assert!(*p > 0, "rescue waiter with no pending parents");
            *p -= 1;
            if *p == 0 {
                mark_ready(sim, world, w);
            }
        }
        try_dispatch(sim, world);
        return;
    }
    // DAGMan releases children whose last parent just finished.
    let children: Vec<TaskId> = world.wf.children(task).to_vec();
    for c in children {
        let p = &mut world.pending_parents[c.index()];
        debug_assert!(*p > 0, "child with no pending parents released");
        *p -= 1;
        if *p == 0 {
            mark_ready(sim, world, c);
        }
    }
    try_dispatch(sim, world);
}

/// The workflow makespan (§V): first submission to last completion.
pub fn makespan(world: &World) -> Option<SimTime> {
    world.finished_at
}
