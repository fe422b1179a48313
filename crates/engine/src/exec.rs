//! Executing storage [`OpPlan`]s against the simulator.

use crate::world::World;
use simcore::Sim;
use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;
use wfdag::TaskId;
use wfobs::Event;
use wfstorage::op::{Note, OpPlan, Stage};

/// A continuation fired when an operation completes.
pub type Cont = Box<dyn FnOnce(&mut Sim<World>, &mut World)>;

/// A `(task, epoch)` pair identifying one task execution. Guarded stages
/// check it before starting work (a killed execution's stale events
/// no-op) and register their flows so a kill can cancel them.
pub type ExecGuard = Option<(TaskId, u32)>;

/// The join of one stage's parallel legs: how many are still in flight,
/// and the continuation the last one to land runs.
struct Join {
    left: Cell<usize>,
    done: Cell<Option<Cont>>,
}

/// Execute a plan: background stages are queued onto the world's single
/// writeback stream; foreground stages run in order; `done` fires when the
/// last foreground stage completes.
pub fn exec_plan(sim: &mut Sim<World>, world: &mut World, plan: OpPlan, done: Cont) {
    exec_plan_guarded(sim, world, plan, None, done);
}

/// [`exec_plan`] on behalf of one task execution: if the execution dies
/// (node crash, storage failover, spot termination), pending latency
/// events no-op and registered flows are cancelled by the kill path.
/// Background stages stay unguarded — writeback belongs to the storage
/// service, not the task.
pub fn exec_plan_guarded(
    sim: &mut Sim<World>,
    world: &mut World,
    plan: OpPlan,
    guard: ExecGuard,
    done: Cont,
) {
    for (stage, note) in plan.background {
        enqueue_background(sim, world, stage, note);
    }
    exec_stages(sim, world, plan.stages.into(), guard, done);
}

/// Run stages sequentially, then `done`.
fn exec_stages(
    sim: &mut Sim<World>,
    world: &mut World,
    mut stages: VecDeque<Stage>,
    guard: ExecGuard,
    done: Cont,
) {
    match stages.pop_front() {
        None => done(sim, world),
        Some(stage) => exec_stage(
            sim,
            stage,
            guard,
            Box::new(move |sim, world| exec_stages(sim, world, stages, guard, done)),
        ),
    }
}

/// Run one stage: pay the latency, then run all legs in parallel; `done`
/// fires when the last leg lands.
fn exec_stage(sim: &mut Sim<World>, stage: Stage, guard: ExecGuard, done: Cont) {
    sim.schedule_in(stage.latency, move |sim, world| {
        if let Some((task, epoch)) = guard {
            if !world.live(task, epoch) {
                return;
            }
            // The task's stages run one after another, so every flow of
            // its previous stage has landed.
            world.inflight_mut(task).clear();
        }
        if stage.legs.is_empty() {
            done(sim, world);
            return;
        }
        let join = Rc::new(Join {
            left: Cell::new(stage.legs.len()),
            done: Cell::new(Some(done)),
        });
        for leg in stage.legs {
            let join = Rc::clone(&join);
            let id = sim.start_flow(leg.into(), move |sim, world| {
                let left = join.left.get() - 1;
                join.left.set(left);
                if left == 0 {
                    let d = join.done.take().expect("continuation fired twice");
                    d(sim, world);
                }
            });
            if let (Some((task, _)), Some(id)) = (guard, id) {
                world.inflight_mut(task).push(id);
            }
        }
    });
}

/// Queue a background stage onto the single writeback stream.
fn enqueue_background(sim: &mut Sim<World>, world: &mut World, stage: Stage, note: Option<Note>) {
    world.bg_queue.push_back((stage, note));
    world.obs.emit(Event::BgEnqueue {
        depth: world.bg_queue.len() as u32,
    });
    if !world.bg_active {
        start_next_background(sim, world);
    }
}

/// Start the next queued background stage, if any.
fn start_next_background(sim: &mut Sim<World>, world: &mut World) {
    let Some((stage, note)) = world.bg_queue.pop_front() else {
        world.bg_active = false;
        return;
    };
    world.bg_active = true;
    world.obs.emit(Event::BgStart {
        depth: world.bg_queue.len() as u32,
    });
    exec_stage(
        sim,
        stage,
        None,
        Box::new(move |sim, world| {
            world.obs.emit(Event::BgDone);
            if let Some(n) = note {
                world.storage.on_background_done(n);
            }
            start_next_background(sim, world);
        }),
    );
}
