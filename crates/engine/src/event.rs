//! The engine's calendar events.
//!
//! Every event the engine schedules, and every flow completion it waits
//! for, is one [`Ev`] value: a task lifecycle step, a stage of a plan in
//! flight, the writeback stream, or a fault-plan arrival. [`World`]
//! implements [`Model`] by matching on it. Events carry the epoch or
//! incarnation they were scheduled against, so an event that outlived
//! its execution or node no-ops when it fires.

use crate::exec::{self, OpRef};
use crate::world::World;
use crate::{driver, failures};
use simcore::{Model, Sim};
use vcluster::NodeId;
use wfdag::TaskId;
use wfstorage::op::Note;

/// One task execution: the task, the worker it holds a slot on, and the
/// execution's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// The task.
    pub task: TaskId,
    worker: u32,
    /// The execution's epoch (see [`World::epoch`]).
    pub epoch: u32,
}

impl Job {
    /// Execution `epoch` of `task` on worker index `worker_ix`.
    pub fn new(task: TaskId, worker_ix: usize, epoch: u32) -> Self {
        Job {
            task,
            worker: u32::try_from(worker_ix).expect("worker index fits u32"),
            epoch,
        }
    }

    /// The worker index (into `cluster.workers()`).
    pub fn worker(self) -> usize {
        self.worker as usize
    }
}

/// An engine event.
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    /// The dispatch overhead is paid: start the operation storm.
    Ops(Job),
    /// The operation storm is done: stage inputs in.
    StageIn(Job),
    /// Read the job's input at this index (past the last: compute).
    Read(Job, u32),
    /// The compute phase ended.
    ComputeEnd(Job),
    /// Write the job's output at this index (past the last: stage out).
    Write(Job, u32),
    /// Stage-out is done: release the slot and the children.
    Done(Job),
    /// A stage's latency has passed: start its legs.
    StageStart(OpRef),
    /// One leg of a stage landed.
    LegDone(OpRef),
    /// The background stage carrying this note landed.
    BgDone(Option<Note>),
    /// Crash worker `worker` if it is still in this incarnation.
    NodeCrash {
        /// Worker index.
        worker: u32,
        /// The incarnation the crash was drawn against.
        incarnation: u32,
    },
    /// The spot market revokes worker `worker`'s incarnation.
    SpotTermination {
        /// Worker index.
        worker: u32,
        /// The incarnation the termination was drawn against.
        incarnation: u32,
    },
    /// A replacement for worker `worker` has booted.
    Recover {
        /// Worker index.
        worker: u32,
        /// The incarnation that went down.
        incarnation: u32,
    },
    /// A storage failure at a scheduled instant, on this node.
    StorageFailure(NodeId),
    /// A sampled storage failure arrives: pick the victim, draw the next.
    StorageFailureArrival,
    /// The storage stall may have lifted.
    StallLift,
    /// A failed execution's backoff has passed: re-queue the task.
    Requeue {
        /// The task.
        task: TaskId,
        /// The epoch the retry was scheduled against.
        epoch: u32,
    },
}

// Calendar entries and flow payloads hold an `Ev`; keep it small.
const _: () = assert!(std::mem::size_of::<Ev>() <= 24);

impl Model for World {
    type Ev = Ev;

    fn fire(sim: &mut Sim<World>, world: &mut World, ev: Ev) {
        match ev {
            Ev::Ops(j) => driver::job_ops(sim, world, j),
            Ev::StageIn(j) => driver::job_stage_in(sim, world, j),
            Ev::Read(j, idx) => driver::job_read(sim, world, j, idx as usize),
            Ev::ComputeEnd(j) => driver::job_compute_end(sim, world, j),
            Ev::Write(j, idx) => driver::job_write(sim, world, j, idx as usize),
            Ev::Done(j) => driver::job_done(sim, world, j),
            Ev::StageStart(op) => exec::stage_start(sim, world, op),
            Ev::LegDone(op) => exec::leg_done(sim, world, op),
            Ev::BgDone(note) => exec::background_done(sim, world, note),
            Ev::NodeCrash {
                worker,
                incarnation,
            } => failures::node_crash(sim, world, worker as usize, incarnation),
            Ev::SpotTermination {
                worker,
                incarnation,
            } => failures::spot_termination(sim, world, worker as usize, incarnation),
            Ev::Recover {
                worker,
                incarnation,
            } => failures::recover(sim, world, worker as usize, incarnation),
            Ev::StorageFailure(victim) => failures::storage_failure(sim, world, victim, false),
            Ev::StorageFailureArrival => failures::storage_failure_arrival(sim, world),
            Ev::StallLift => failures::stall_lift(sim, world),
            Ev::Requeue { task, epoch } => failures::requeue(sim, world, task, epoch),
        }
    }
}
