//! The simulation driver: a clock, an event calendar, and the fluid-flow
//! engine, woven together.
//!
//! The caller-owned world `W` is a [`Model`]: it names its own event type
//! [`Model::Ev`] and says how to [fire](Model::fire) one. A calendar entry
//! and a flow's completion payload are both an [`Action`]: a typed event
//! of the world, or a one-off closure ([`EventFn`]) for set-up code and
//! tests. A typed event is a plain value: firing one allocates nothing,
//! and a model can inspect, compare or copy what it has pending. Two
//! events at the same instant fire in scheduling order (a monotonically
//! increasing sequence number breaks ties), and calendar events win ties
//! against flow completions — both rules are deterministic.

use crate::flow::{FlowEngine, FlowId, FlowSpec, ResourceId, ResourceStats};
use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::convert::Infallible;
use wfobs::{Event, ObsHandle};

/// A world the simulation runs over: its event type, and how one fires.
pub trait Model: Sized + 'static {
    /// The world's typed events.
    type Ev;

    /// Fire `ev` at the current instant.
    fn fire(sim: &mut Sim<Self>, world: &mut Self, ev: Self::Ev);
}

/// The unit world has no events of its own; closures drive it.
impl Model for () {
    type Ev = Infallible;

    fn fire(_: &mut Sim<Self>, _: &mut Self, ev: Infallible) {
        match ev {}
    }
}

/// A one-off event handler: runs once with access to the simulation and
/// the world.
pub type EventFn<W> = Box<dyn FnOnce(&mut Sim<W>, &mut W)>;

/// What a calendar entry or a flow completion does when it fires.
pub enum Action<W: Model> {
    /// A typed event, handed to [`Model::fire`].
    Event(W::Ev),
    /// A closure, run as is.
    Call(EventFn<W>),
}

struct Scheduled<W: Model> {
    time: SimTime,
    seq: u64,
    action: Action<W>,
}

impl<W: Model> PartialEq for Scheduled<W> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<W: Model> Eq for Scheduled<W> {}
impl<W: Model> PartialOrd for Scheduled<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W: Model> Ord for Scheduled<W> {
    // Reversed: BinaryHeap is a max-heap, we want the earliest first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A discrete-event simulation over a world `W`.
pub struct Sim<W: Model> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Scheduled<W>>,
    flows: FlowEngine<Action<W>>,
    events_fired: u64,
    obs: ObsHandle,
}

impl<W: Model> Default for Sim<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: Model> Sim<W> {
    /// An empty simulation at `t = 0`.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            flows: FlowEngine::new(),
            events_fired: 0,
            obs: ObsHandle::disabled(),
        }
    }

    /// Attach an observability bus. The simulation loop drives its clock
    /// and reports flow lifecycle events; resources registered so far are
    /// re-announced so the bus knows every label.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        if obs.enabled() {
            for ix in 0..self.flows.resource_count() {
                obs.register_resource(self.flows.resource_name(ResourceId::from_index(ix)));
            }
        }
        self.obs = obs;
    }

    /// The attached observability bus (the null handle when none is).
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.events_fired
    }

    /// Register a shared resource (disk, NIC, server) with capacity in
    /// bytes/second.
    pub fn add_resource(&mut self, name: impl Into<String>, capacity_bps: f64) -> ResourceId {
        let id = self.flows.add_resource(name, capacity_bps);
        if self.obs.enabled() {
            self.obs.register_resource(self.flows.resource_name(id));
        }
        id
    }

    /// Statistics for a resource, brought forward to the engine's latest
    /// accounting instant.
    pub fn resource_stats(&self, id: ResourceId) -> ResourceStats {
        self.flows.resource_stats(id)
    }

    /// Name of a resource.
    pub fn resource_name(&self, id: ResourceId) -> &str {
        self.flows.resource_name(id)
    }

    /// Number of registered resources.
    pub fn resource_count(&self) -> usize {
        self.flows.resource_count()
    }

    /// (started, completed) flow counters.
    pub fn flow_counters(&self) -> (u64, u64) {
        self.flows.flow_counters()
    }

    /// Schedule the closure `f` at absolute time `t` (clamped to the
    /// present if `t` is in the past).
    pub fn schedule_at(&mut self, t: SimTime, f: impl FnOnce(&mut Sim<W>, &mut W) + 'static) {
        self.push(t, Action::Call(Box::new(f)));
    }

    /// Schedule the event `ev` at absolute time `t` (clamped to the
    /// present if `t` is in the past).
    pub fn post_at(&mut self, t: SimTime, ev: W::Ev) {
        self.push(t, Action::Event(ev));
    }

    /// Schedule the event `ev` after a delay.
    pub fn post_in(&mut self, d: SimDuration, ev: W::Ev) {
        self.push(self.now + d, Action::Event(ev));
    }

    fn push(&mut self, t: SimTime, action: Action<W>) {
        let time = t.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { time, seq, action });
    }

    /// Start a fluid flow; the closure `done` runs when the last byte
    /// arrives. Instantaneous specs (zero bytes, or unconstrained) degrade
    /// to an immediate calendar event.
    pub fn start_flow(
        &mut self,
        spec: FlowSpec,
        done: impl FnOnce(&mut Sim<W>, &mut W) + 'static,
    ) -> Option<FlowId> {
        self.start_flow_action(spec, Action::Call(Box::new(done)))
    }

    /// [`start_flow`](Self::start_flow) with a typed completion event.
    pub fn start_flow_ev(&mut self, spec: FlowSpec, done: W::Ev) -> Option<FlowId> {
        self.start_flow_action(spec, Action::Event(done))
    }

    fn start_flow_action(&mut self, spec: FlowSpec, done: Action<W>) -> Option<FlowId> {
        if spec.is_instant() {
            self.push(self.now, done);
            None
        } else {
            let path = if self.obs.enabled() {
                spec.path.clone()
            } else {
                Vec::new()
            };
            let bytes = spec.bytes;
            let id = self.flows.start(self.now, spec, done);
            if self.obs.enabled() {
                let rate = self.flows.flow_rate(id).unwrap_or(0.0);
                self.obs.emit(Event::FlowStart {
                    id: id.0,
                    bytes,
                    rate_bits: rate.to_bits(),
                });
                for r in path {
                    self.obs.emit(Event::FlowRes {
                        id: id.0,
                        resource: r.0,
                    });
                }
            }
            Some(id)
        }
    }

    /// Cancel an active flow. Returns its completion action, which will
    /// now never fire, if the flow was still active.
    pub fn cancel_flow(&mut self, id: FlowId) -> Option<Action<W>> {
        let done = self.flows.cancel(self.now, id);
        if done.is_some() {
            self.obs.emit(Event::FlowCancel { id: id.0 });
        }
        done
    }

    /// Perform `action` now, as if it had just fired from the calendar
    /// (without counting an event).
    pub fn dispatch(&mut self, world: &mut W, action: Action<W>) {
        match action {
            Action::Event(ev) => W::fire(self, world, ev),
            Action::Call(f) => f(self, world),
        }
    }

    /// Run until no events or flows remain.
    pub fn run(&mut self, world: &mut W) {
        loop {
            let tq = self.queue.peek().map(|s| s.time);
            let next = match (tq, self.flows.next_completion()) {
                (None, None) => break,
                (Some(q), None) => Step::Event(q),
                (None, Some((t, id))) => Step::Flow(t, id),
                (Some(q), Some((t, id))) => {
                    if q <= t {
                        Step::Event(q)
                    } else {
                        Step::Flow(t, id)
                    }
                }
            };
            match next {
                Step::Event(t) => {
                    let ev = self.queue.pop().expect("peeked event vanished");
                    self.now = t;
                    self.obs.set_now(t.as_nanos());
                    self.events_fired += 1;
                    self.dispatch(world, ev.action);
                }
                Step::Flow(t, id) => {
                    self.now = self.now.max(t);
                    self.obs.set_now(self.now.as_nanos());
                    let done = self.flows.complete(self.now, id);
                    self.events_fired += 1;
                    self.obs.emit(Event::FlowEnd { id: id.0 });
                    self.dispatch(world, done);
                }
            }
        }
    }
}

enum Step {
    Event(SimTime),
    Flow(SimTime, FlowId),
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Default)]
    struct World {
        log: Vec<(f64, &'static str)>,
    }

    /// The test world's typed event logs its name at the firing instant.
    impl Model for World {
        type Ev = &'static str;

        fn fire(sim: &mut Sim<Self>, world: &mut Self, name: &'static str) {
            world.log.push((sim.now().as_secs_f64(), name));
        }
    }

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.schedule_at(secs(2.0), |s, w| w.log.push((s.now().as_secs_f64(), "b")));
        sim.schedule_at(secs(1.0), |s, w| w.log.push((s.now().as_secs_f64(), "a")));
        sim.schedule_at(secs(3.0), |s, w| w.log.push((s.now().as_secs_f64(), "c")));
        sim.run(&mut w);
        let names: Vec<&str> = w.log.iter().map(|(_, n)| *n).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert_eq!(w.log[2].0, 3.0);
    }

    #[test]
    fn same_time_events_fire_in_scheduling_order() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        for name in ["first", "second", "third"] {
            sim.schedule_at(secs(1.0), move |_, w| w.log.push((1.0, name)));
        }
        sim.run(&mut w);
        let names: Vec<&str> = w.log.iter().map(|(_, n)| *n).collect();
        assert_eq!(names, vec!["first", "second", "third"]);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.schedule_at(secs(1.0), |s, _| {
            s.schedule_at(s.now() + SimDuration::from_secs(2), |s, w| {
                w.log.push((s.now().as_secs_f64(), "chained"));
            });
        });
        sim.run(&mut w);
        assert_eq!(w.log, vec![(3.0, "chained")]);
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.schedule_at(secs(5.0), |s, _| {
            s.schedule_at(secs(1.0), |s, w| {
                w.log.push((s.now().as_secs_f64(), "late"))
            });
        });
        sim.run(&mut w);
        assert_eq!(w.log, vec![(5.0, "late")]);
    }

    #[test]
    fn flow_completion_fires_closure_at_right_time() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let disk = sim.add_resource("disk", 100.0);
        sim.schedule_at(secs(0.0), move |s, _| {
            s.start_flow(FlowSpec::new(1000, vec![disk]), |s, w| {
                w.log.push((s.now().as_secs_f64(), "flow-done"));
            });
        });
        sim.run(&mut w);
        assert_eq!(w.log.len(), 1);
        assert!((w.log[0].0 - 10.0).abs() < 1e-6, "{:?}", w.log);
    }

    #[test]
    fn instant_flow_degrades_to_event() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.schedule_at(secs(1.0), |s, _| {
            let id = s.start_flow(FlowSpec::new(0, vec![]), |s, w| {
                w.log.push((s.now().as_secs_f64(), "instant"));
            });
            assert!(id.is_none());
        });
        sim.run(&mut w);
        assert_eq!(w.log, vec![(1.0, "instant")]);
    }

    #[test]
    fn event_beats_flow_on_tie() {
        // A flow completing at t=10 and an event at t=10: event first.
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let disk = sim.add_resource("disk", 100.0);
        sim.schedule_at(secs(0.0), move |s, _| {
            s.start_flow(FlowSpec::new(1000, vec![disk]), |_, w| {
                w.log.push((10.0, "flow"))
            });
        });
        sim.schedule_at(secs(10.0), |_, w| w.log.push((10.0, "event")));
        sim.run(&mut w);
        let names: Vec<&str> = w.log.iter().map(|(_, n)| *n).collect();
        assert_eq!(names, vec!["event", "flow"]);
    }

    #[test]
    fn cancel_flow_prevents_completion() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let disk = sim.add_resource("disk", 100.0);
        let handle: Rc<RefCell<Option<crate::flow::FlowId>>> = Rc::new(RefCell::new(None));
        let h2 = handle.clone();
        sim.schedule_at(secs(0.0), move |s, _| {
            let id = s.start_flow(FlowSpec::new(1000, vec![disk]), |_, w| {
                w.log.push((0.0, "should-not-fire"));
            });
            *h2.borrow_mut() = id;
        });
        let h3 = handle.clone();
        sim.schedule_at(secs(1.0), move |s, _| {
            let id = h3.borrow().expect("flow started");
            assert!(s.cancel_flow(id).is_some());
        });
        sim.run(&mut w);
        assert!(w.log.is_empty());
    }

    #[test]
    fn clock_is_monotonic_through_mixed_workload() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let disk = sim.add_resource("disk", 10.0);
        for i in 0..20u64 {
            sim.schedule_at(secs(i as f64 * 0.3), move |s, _| {
                s.start_flow(FlowSpec::new(7 + i, vec![disk]), move |s, w| {
                    w.log.push((s.now().as_secs_f64(), "f"));
                });
            });
        }
        sim.run(&mut w);
        assert_eq!(w.log.len(), 20);
        for pair in w.log.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "time went backwards: {pair:?}");
        }
    }

    #[test]
    fn typed_and_closure_events_share_one_calendar() {
        // Ties break by scheduling order whichever kind an entry is.
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.post_at(secs(1.0), "typed-1");
        sim.schedule_at(secs(1.0), |s, w| {
            w.log.push((s.now().as_secs_f64(), "closure"))
        });
        sim.post_at(secs(1.0), "typed-2");
        sim.post_at(secs(0.5), "early");
        sim.run(&mut w);
        let names: Vec<&str> = w.log.iter().map(|(_, n)| *n).collect();
        assert_eq!(names, vec!["early", "typed-1", "closure", "typed-2"]);
        assert_eq!(sim.events_fired(), 4);
    }

    #[test]
    fn typed_flow_completion_fires_at_right_time() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let disk = sim.add_resource("disk", 100.0);
        sim.schedule_at(secs(0.0), move |s, _| {
            s.start_flow_ev(FlowSpec::new(1000, vec![disk]), "landed");
            assert!(s
                .start_flow_ev(FlowSpec::new(0, vec![]), "instant")
                .is_none());
        });
        sim.run(&mut w);
        assert_eq!(w.log.len(), 2);
        assert_eq!(w.log[0], (0.0, "instant"));
        assert_eq!(w.log[1].1, "landed");
        assert!((w.log[1].0 - 10.0).abs() < 1e-6, "{:?}", w.log);
    }

    #[test]
    fn cancel_flow_hands_back_the_completion_event() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let disk = sim.add_resource("disk", 100.0);
        sim.schedule_at(secs(0.0), move |s, _| {
            let id = s
                .start_flow_ev(FlowSpec::new(1000, vec![disk]), "never")
                .expect("a real flow");
            assert!(matches!(s.cancel_flow(id), Some(Action::Event("never"))));
            assert!(s.cancel_flow(id).is_none(), "already cancelled");
        });
        sim.run(&mut w);
        assert!(w.log.is_empty());
    }
}
