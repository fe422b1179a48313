//! Tests for the plan executor and the background writeback stream.

#[cfg(test)]
mod tests {
    use crate::exec::exec_plan;
    use crate::world::World;
    use crate::RunConfig;
    use simcore::{Action, Sim, SimDuration, SimTime};
    use vcluster::Cluster;
    use wfdag::WorkflowBuilder;
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
            exec_plan(sim, w, plan, Action::Call(Box::new(|_, _| {})));
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
            exec_plan(sim, w, p1, Action::Call(Box::new(|_, _| {})));
            exec_plan(sim, w, p2, Action::Call(Box::new(|_, _| {})));
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
}
