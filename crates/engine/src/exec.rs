//! Executing storage [`OpPlan`]s against the simulator.
//!
//! A plan in flight is one slot of the world's [`Ops`] slab: its stages,
//! the index of the current one, the countdown of that stage's legs
//! still in flight, and the action to perform when the last stage lands.
//! Calendar events name the slot by an [`OpRef`], so a stage's latency
//! and each of its legs fire plain [`Ev::StageStart`] / [`Ev::LegDone`]
//! values and nothing is boxed per stage or per leg.

use crate::event::Ev;
use crate::world::World;
use simcore::{Action, Sim};
use wfdag::TaskId;
use wfobs::Event;
use wfstorage::op::{Note, OpPlan, Stage};

/// A `(task, epoch)` pair identifying one task execution. Guarded stages
/// check it before starting work (a killed execution's stale events
/// no-op) and register their flows so a kill can cancel them.
pub type ExecGuard = Option<(TaskId, u32)>;

/// A plan in flight: its slot in [`Ops`] and the slot's generation when
/// the plan took it. A reference outlives its plan only in events a
/// killed execution left behind; the generation makes those no-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRef {
    ix: u32,
    gen: u32,
}

/// One slot of the [`Ops`] slab.
struct Op {
    /// Bumped each time the slot is freed, so no reference to an
    /// earlier plan in it matches.
    gen: u32,
    stages: Vec<Stage>,
    /// Index in `stages` of the stage whose latency or legs are pending.
    stage: usize,
    /// Legs of the current stage still in flight.
    left: usize,
    guard: ExecGuard,
    /// Performed when the last stage lands; `None` while the slot is free.
    then: Option<Action<World>>,
}

/// The plans in flight, in slots recycled through a free list.
#[derive(Default)]
pub struct Ops {
    slots: Vec<Op>,
    free: Vec<u32>,
}

impl Ops {
    fn open(&mut self, stages: Vec<Stage>, guard: ExecGuard, then: Action<World>) -> OpRef {
        let ix = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Op {
                gen: 0,
                stages: Vec::new(),
                stage: 0,
                left: 0,
                guard: None,
                then: None,
            });
            u32::try_from(self.slots.len() - 1).expect("op slot fits u32")
        });
        let op = &mut self.slots[ix as usize];
        op.stages = stages;
        op.stage = 0;
        op.left = 0;
        op.guard = guard;
        op.then = Some(then);
        OpRef { ix, gen: op.gen }
    }

    /// The plan `r` refers to, unless it has been freed since.
    fn get(&mut self, r: OpRef) -> Option<&mut Op> {
        self.slots
            .get_mut(r.ix as usize)
            .filter(|op| op.gen == r.gen)
    }

    /// Free `r`'s slot and hand back its completion action.
    pub(crate) fn close(&mut self, r: OpRef) -> Option<Action<World>> {
        let op = self.get(r)?;
        op.gen = op.gen.wrapping_add(1);
        op.stages = Vec::new();
        let then = op.then.take();
        self.free.push(r.ix);
        then
    }

    /// Whether no plan is in flight.
    pub fn is_empty(&self) -> bool {
        self.slots.len() == self.free.len()
    }
}

/// Execute a plan: background stages are queued onto the world's single
/// writeback stream; foreground stages run in order; `then` is performed
/// when the last foreground stage completes.
pub fn exec_plan(sim: &mut Sim<World>, world: &mut World, plan: OpPlan, then: Action<World>) {
    exec_plan_guarded(sim, world, plan, None, then);
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
    then: Action<World>,
) {
    for (stage, note) in plan.background {
        enqueue_background(sim, world, stage, note);
    }
    if plan.stages.is_empty() {
        sim.dispatch(world, then);
        return;
    }
    let latency = plan.stages[0].latency;
    let op = world.ops.open(plan.stages, guard, then);
    sim.post_in(latency, Ev::StageStart(op));
}

/// A stage's latency has passed: run all its legs in parallel.
pub(crate) fn stage_start(sim: &mut Sim<World>, world: &mut World, r: OpRef) {
    let Some(op) = world.ops.get(r) else {
        return;
    };
    let guard = op.guard;
    let legs = std::mem::take(&mut op.stages[op.stage].legs);
    op.left = legs.len();
    if let Some((task, epoch)) = guard {
        if !world.live(task, epoch) {
            world.ops.close(r);
            return;
        }
        // The task's stages run one after another, so every flow of
        // its previous stage has landed.
        world.inflight_mut(task).clear();
    }
    if legs.is_empty() {
        stage_done(sim, world, r);
        return;
    }
    for leg in legs {
        let id = sim.start_flow_ev(leg.into(), Ev::LegDone(r));
        if let (Some((task, _)), Some(id)) = (guard, id) {
            world.inflight_mut(task).push(id);
        }
    }
}

/// One leg of the current stage landed; the last one ends the stage.
pub(crate) fn leg_done(sim: &mut Sim<World>, world: &mut World, r: OpRef) {
    // A leg of a plan freed by a kill has nothing left to count.
    let Some(op) = world.ops.get(r) else {
        return;
    };
    op.left -= 1;
    if op.left == 0 {
        stage_done(sim, world, r);
    }
}

/// Move on to the next stage, or perform the plan's completion action.
fn stage_done(sim: &mut Sim<World>, world: &mut World, r: OpRef) {
    let op = world.ops.get(r).expect("the stage's plan is in flight");
    op.stage += 1;
    match op.stages.get(op.stage) {
        Some(next) => sim.post_in(next.latency, Ev::StageStart(r)),
        None => {
            let then = world.ops.close(r).expect("the plan was open");
            sim.dispatch(world, then);
        }
    }
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
    let latency = stage.latency;
    let op = world
        .ops
        .open(vec![stage], None, Action::Event(Ev::BgDone(note)));
    sim.post_in(latency, Ev::StageStart(op));
}

/// A background stage landed: deliver its note and start the next one.
pub(crate) fn background_done(sim: &mut Sim<World>, world: &mut World, note: Option<Note>) {
    world.obs.emit(Event::BgDone);
    if let Some(n) = note {
        world.storage.on_background_done(n);
    }
    start_next_background(sim, world);
}
