//! Tests for the plan executor and the background writeback stream.

#[cfg(test)]
mod tests {
    use crate::exec::exec_plan;
    use crate::failures::kill_task;
    use crate::world::World;
    use crate::RunConfig;
    use simcore::{Action, FlowId, Sim, SimDuration, SimTime};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;
    use vcluster::Cluster;
    use wfdag::{TaskId, WorkflowBuilder};
    use wfstorage::op::{FlowLeg, Note, OpPlan, Stage};
    use wfstorage::{build_storage, cluster_spec_for, StorageConfigs, StorageKind};

    /// A minimal world for executor tests.
    fn world(sim: &mut Sim<World>) -> World {
        let cfg = RunConfig::cell(StorageKind::Nfs, 2);
        let spec = cluster_spec_for(cfg.storage, cfg.workers, None);
        let cluster = Cluster::provision(sim, &spec);
        let storage = build_storage(cfg.storage, sim, &cluster, &StorageConfigs::default());
        let mut b = WorkflowBuilder::new("empty");
        let f = b.file("f", 1);
        b.task("t", "x", 0.0, 0, vec![], vec![f]);
        World::new(b.build().unwrap(), cluster, storage, cfg)
    }

    #[test]
    fn stages_execute_sequentially_with_latencies() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = world(&mut sim);
        let r = sim.add_resource("test.r", 100.0);
        // Two stages: 1 s latency + 100 bytes (1 s), then 2 s latency.
        let plan = OpPlan::one(Stage::lat_leg(
            SimDuration::from_secs(1),
            FlowLeg::new(100, vec![r]),
        ))
        .then(Stage::latency(SimDuration::from_secs(2)));
        sim.schedule_at(SimTime::ZERO, move |sim, w| {
            exec_plan(
                sim,
                w,
                plan,
                None,
                Action::Call(Box::new(|sim, _| {
                    assert!((sim.now().as_secs_f64() - 4.0).abs() < 1e-9);
                })),
            );
        });
        sim.run(&mut w);
        assert!(
            (sim.now().as_secs_f64() - 4.0).abs() < 1e-9,
            "{}",
            sim.now()
        );
    }

    #[test]
    fn parallel_legs_complete_together() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = world(&mut sim);
        let r = sim.add_resource("test.r", 100.0);
        // Two 100-byte legs share the resource: the stage ends at 2 s.
        let plan = OpPlan::one(Stage {
            latency: SimDuration::ZERO,
            legs: vec![FlowLeg::new(100, vec![r]), FlowLeg::new(100, vec![r])],
        });
        sim.schedule_at(SimTime::ZERO, move |sim, w| {
            exec_plan(sim, w, plan, None, Action::Call(Box::new(|_, _| {})));
        });
        sim.run(&mut w);
        assert!(
            (sim.now().as_secs_f64() - 2.0).abs() < 1e-9,
            "{}",
            sim.now()
        );
    }

    #[test]
    fn empty_plan_fires_continuation_immediately() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = world(&mut sim);
        sim.schedule_at(SimTime::from_secs_f64(5.0), move |sim, w| {
            exec_plan(
                sim,
                w,
                OpPlan::empty(),
                None,
                Action::Call(Box::new(|sim, _| {
                    assert!((sim.now().as_secs_f64() - 5.0).abs() < 1e-12);
                })),
            );
        });
        sim.run(&mut w);
        assert!((sim.now().as_secs_f64() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn background_stages_serialize_on_one_stream() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = world(&mut sim);
        let r = sim.add_resource("flush.r", 100.0);
        // Two background flushes of 100 bytes each on one writeback
        // stream: they run one after the other (1 s each), so the sim
        // drains at t = 2 s, not t = 1 s.
        let mk = |r| {
            OpPlan::empty().with_background(
                Stage::leg(FlowLeg::new(100, vec![r])),
                Some(Note::NfsFlushed { bytes: 100 }),
            )
        };
        let (p1, p2) = (mk(r), mk(r));
        sim.schedule_at(SimTime::ZERO, move |sim, w| {
            exec_plan(sim, w, p1, None, Action::Call(Box::new(|_, _| {})));
            exec_plan(sim, w, p2, None, Action::Call(Box::new(|_, _| {})));
        });
        sim.run(&mut w);
        assert!(
            (sim.now().as_secs_f64() - 2.0).abs() < 1e-9,
            "{}",
            sim.now()
        );
        assert!(!w.bg_active);
        assert!(w.bg_queue.is_empty());
        assert!(w.ops.is_empty(), "every plan's slot was freed");
    }

    #[test]
    fn foreground_does_not_wait_for_background() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = world(&mut sim);
        let r = sim.add_resource("flush.r", 1.0); // very slow flush: 100 s
        let plan = OpPlan::one(Stage::latency(SimDuration::from_secs(1)))
            .with_background(Stage::leg(FlowLeg::new(100, vec![r])), None);
        let done_at = std::rc::Rc::new(std::cell::Cell::new(0.0f64));
        let done_at2 = done_at.clone();
        sim.schedule_at(SimTime::ZERO, move |sim, w| {
            exec_plan(
                sim,
                w,
                plan,
                None,
                Action::Call(Box::new(move |sim, _| {
                    done_at2.set(sim.now().as_secs_f64());
                })),
            );
        });
        sim.run(&mut w);
        assert!(
            (done_at.get() - 1.0).abs() < 1e-9,
            "foreground done at {}",
            done_at.get()
        );
        assert!(
            (sim.now().as_secs_f64() - 100.0).abs() < 1e-6,
            "flush drains later"
        );
    }

    /// What a kill of a guarded plan's task left behind.
    struct Killed {
        sim: Sim<World>,
        world: World,
        /// Flows of the plan's current stage when the kill struck.
        flows: Vec<FlowId>,
        /// Whether the plan's completion action ran.
        then_ran: bool,
    }

    /// Run a two-stage plan guarded by the world's one task: 1 s latency,
    /// then a zero-byte leg and a 100-byte leg at 100 B/s; then 2 s
    /// latency. Kill the task at `kill_at` (after any same-instant event
    /// the plan posted when it opened) and run the sim dry.
    fn kill_two_stage_plan(kill_at: SimTime) -> Killed {
        let mut sim: Sim<World> = Sim::new();
        let mut w = world(&mut sim);
        let r = sim.add_resource("test.r", 100.0);
        let plan = OpPlan::one(Stage {
            latency: SimDuration::from_secs(1),
            legs: vec![FlowLeg::new(0, vec![r]), FlowLeg::new(100, vec![r])],
        })
        .then(Stage::latency(SimDuration::from_secs(2)));
        let task = TaskId(0);
        let then_ran = Rc::new(Cell::new(false));
        let flows = Rc::new(RefCell::new(Vec::new()));
        let (ran, seen) = (then_ran.clone(), flows.clone());
        sim.schedule_at(SimTime::ZERO, move |sim, w| {
            exec_plan(
                sim,
                w,
                plan,
                Some(task),
                Action::Call(Box::new(move |_, _| ran.set(true))),
            );
            sim.schedule_at(kill_at, move |sim, w| {
                let op = w.plan[task.index()].expect("the plan is in flight");
                seen.replace(w.ops.flows(op).to_vec());
                kill_task(sim, w, task, 0, false);
            });
        });
        sim.run(&mut w);
        let flows = flows.take();
        Killed {
            sim,
            world: w,
            flows,
            then_ran: then_ran.get(),
        }
    }

    /// What every kill leaves: the op slab is empty, no flow of the plan
    /// is active, its completion action never ran, and the task's plan
    /// entry is gone.
    fn assert_plan_freed(k: &mut Killed) {
        assert!(k.world.ops.is_empty(), "the killed plan's slot was freed");
        for &id in &k.flows {
            assert!(k.sim.cancel_flow(id).is_none(), "flow {id:?} still active");
        }
        assert!(!k.then_ran, "a killed plan's completion action ran");
        assert!(k.world.plan[0].is_none());
        // No fault plan, so no retry budget: the kill aborts the run.
        assert_eq!(k.world.aborted, Some(TaskId(0)));
    }

    #[test]
    fn kill_during_latency_frees_the_plan_and_its_stage_start_is_stale() {
        let mut k = kill_two_stage_plan(SimTime::from_secs_f64(0.5));
        assert!(k.flows.is_empty(), "no leg had started");
        assert_plan_freed(&mut k);
        // Events: the opening closure, the kill, and the stale
        // `StageStart` at 1 s, which starts no flow.
        assert_eq!(k.sim.events_fired(), 3);
        assert_eq!(k.sim.flow_counters(), (0, 0));
        assert_eq!(k.sim.now(), SimTime::from_secs_f64(1.0));
    }

    #[test]
    fn kill_with_legs_in_flight_cancels_them_and_the_leg_done_is_stale() {
        // The kill strikes at 1 s, after the first stage started: its
        // 100-byte flow is in flight and its zero-byte leg's `LegDone`
        // is queued behind the kill. A kill that found the plan only
        // through a cancelled flow's payload missed a stage made only of
        // zero-byte legs at this instant: the plan stayed open and its
        // next stage fired one extra no-op `StageStart` (one more
        // `RunStats::events`). No golden, pin or figure cell reaches
        // that case, so freeing the plan here moves no answer.
        let mut k = kill_two_stage_plan(SimTime::from_secs_f64(1.0));
        assert_eq!(k.flows.len(), 1, "the 100-byte leg's flow");
        assert_plan_freed(&mut k);
        // Events: the opening closure, `StageStart`, the kill, and the
        // stale `LegDone` of the zero-byte leg. The cancelled flow never
        // lands and the second stage never starts.
        assert_eq!(k.sim.events_fired(), 4);
        assert_eq!(k.sim.flow_counters(), (1, 0));
        assert_eq!(k.sim.now(), SimTime::from_secs_f64(1.0));
    }
}
