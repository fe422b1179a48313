//! The event bus: a cheap-to-clone handle the whole stack emits through.
//!
//! The handle is a nullable `Rc<RefCell<..>>`. When observability is off
//! (the default) the option is `None` and every emission is a single
//! branch on a niche-optimised pointer — the "zero overhead when
//! disabled" contract. The simulation loop owns the clock: it calls
//! [`ObsHandle::set_now`] before draining each event, so emitters
//! (drivers, storage backends) never pass timestamps themselves.
//!
//! Since the live-streaming refactor the bus is a fan-out pipeline: the
//! digest absorbs every event first, then the in-memory recorder (itself
//! just an [`ObsSink`]) and any attached live sinks see it. Sinks are
//! observers only — attaching them cannot change the digest, the
//! metrics, or anything the simulation computes.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::digest::RunDigest;
use crate::event::{Event, FaultKind, OpKind};
use crate::metrics::Metrics;
use crate::sink::ObsSink;

/// How much the bus records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsLevel {
    /// No bus at all; emission sites compile to a null check.
    #[default]
    Off,
    /// Stream every event through the run digest, record nothing else.
    Digest,
    /// Digest + in-memory event log + metrics registry (for exporters).
    Full,
}

/// Convert simulated seconds to the bus's nanosecond clock.
pub fn nanos_from_secs(secs: f64) -> u64 {
    // Simulated times are non-negative and far below u64::MAX nanoseconds
    // (≈ 584 years); round-to-nearest keeps equal f64 times equal.
    (secs * 1e9).round() as u64
}

/// Default sim-time metric-tick interval: 250 ms of simulated time.
pub const DEFAULT_TICK_NANOS: u64 = 250_000_000;

/// Everything the bus accumulated over one run, extracted at the end.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Recording level the run used.
    pub level: ObsLevel,
    /// Seed the digest was initialised with.
    pub seed: u64,
    /// Timestamped event log (empty unless [`ObsLevel::Full`]).
    pub events: Vec<(u64, Event)>,
    /// Registered resource labels, by resource index.
    pub resources: Vec<String>,
    /// Metrics registry (empty unless [`ObsLevel::Full`]).
    pub metrics: Metrics,
    /// Final run digest.
    pub digest: u64,
}

/// The in-memory recorder: the original record-then-export store,
/// restructured as one [`ObsSink`] among many. It owns the event log,
/// the metrics registry and the per-resource in-flight bookkeeping the
/// exporters consume after the run.
#[derive(Debug, Default)]
struct Recorder {
    events: Vec<(u64, Event)>,
    resources: Vec<String>,
    /// Name of each registered resource's in-flight series,
    /// `inflight_flows.{label}`, built once when it registers.
    inflight_keys: Vec<String>,
    metrics: Metrics,
    /// Resources crossed by each in-flight flow (used to keep
    /// per-resource in-flight counts on flow end/cancel).
    flow_paths: BTreeMap<u64, Vec<u32>>,
    /// Emptied paths of ended flows, reused by the flows that start next.
    spare_paths: Vec<Vec<u32>>,
    /// In-flight flow count per resource index.
    inflight: Vec<u32>,
}

impl Recorder {
    fn update_metrics(&mut self, t: u64, ev: &Event) {
        const DEPTH_BOUNDS: [u64; 6] = [1, 2, 4, 8, 16, 64];
        let m = &mut self.metrics;
        match *ev {
            Event::TaskReady { .. } => m.count("tasks_ready", 1),
            Event::TaskStart { .. } => m.count("tasks_started", 1),
            Event::TaskEnd { .. } => m.count("tasks_finished", 1),
            Event::TaskKilled { wasted_nanos, .. } => {
                m.count("tasks_killed", 1);
                m.count("wasted_nanos", wasted_nanos);
            }
            Event::TaskFailed { .. } => m.count("tasks_failed", 1),
            Event::ReadyDepth { depth } => {
                m.observe("ready_depth", &DEPTH_BOUNDS, u64::from(depth));
                m.sample("ready_depth", t, f64::from(depth));
            }
            Event::FlowStart { id, bytes, .. } => {
                m.count("flows_started", 1);
                m.count("flow_bytes", bytes);
                let path = self.spare_paths.pop().unwrap_or_default();
                self.flow_paths.insert(id, path);
            }
            Event::FlowRes { id, resource } => {
                if let Some(path) = self.flow_paths.get_mut(&id) {
                    path.push(resource);
                }
                self.bump_inflight(t, resource, 1);
            }
            Event::FlowEnd { id } => {
                m.count("flows_finished", 1);
                self.drop_flow(t, id);
            }
            Event::FlowCancel { id } => {
                m.count("flows_cancelled", 1);
                self.drop_flow(t, id);
            }
            Event::StorageOp { op, bytes, .. } => {
                let name = match op {
                    OpKind::Read => "storage_reads",
                    OpKind::Write => "storage_writes",
                    OpKind::StageIn => "storage_stage_ins",
                    OpKind::StageOut => "storage_stage_outs",
                    OpKind::OpStorm => "storage_op_storms",
                };
                m.count(name, 1);
                m.count("storage_bytes", bytes);
            }
            Event::CacheHit { .. } => m.count("cache_hits", 1),
            Event::CacheMiss { .. } => m.count("cache_misses", 1),
            Event::BgEnqueue { depth } => {
                m.count("bg_enqueued", 1);
                m.observe("bg_depth", &DEPTH_BOUNDS, u64::from(depth));
                m.sample("bg_depth", t, f64::from(depth));
            }
            Event::BgStart { depth } => m.sample("bg_depth", t, f64::from(depth)),
            Event::BgDone => m.count("bg_done", 1),
            Event::Fault { kind, .. } => {
                let name = match kind {
                    FaultKind::NodeCrash => "faults_node_crash",
                    FaultKind::SpotTermination => "faults_spot_termination",
                    FaultKind::StorageFailure => "faults_storage_failure",
                };
                m.count(name, 1);
            }
            Event::FilesLost { count } => m.count("files_lost", u64::from(count)),
            Event::RescueResubmit { .. } => m.count("rescue_resubmits", 1),
            Event::NodeRecovered { .. } => m.count("nodes_recovered", 1),
            Event::SegmentOpen { .. } => m.count("segments_opened", 1),
            Event::SegmentClose { .. } => m.count("segments_closed", 1),
            Event::TaskPhase { .. } => {}
        }
    }

    fn bump_inflight(&mut self, t: u64, resource: u32, delta: i64) {
        let ix = resource as usize;
        if self.inflight.len() <= ix {
            self.inflight.resize(ix + 1, 0);
        }
        let v = i64::from(self.inflight[ix]) + delta;
        self.inflight[ix] = v.max(0) as u32;
        let v = v.max(0) as f64;
        match self.inflight_keys.get(ix) {
            Some(key) => self.metrics.sample(key, t, v),
            None => self.metrics.sample(&format!("inflight_flows.r{ix}"), t, v),
        }
    }

    fn drop_flow(&mut self, t: u64, id: u64) {
        if let Some(mut path) = self.flow_paths.remove(&id) {
            for &r in &path {
                self.bump_inflight(t, r, -1);
            }
            path.clear();
            self.spare_paths.push(path);
        }
    }
}

impl ObsSink for Recorder {
    fn on_resource(&mut self, _ix: u32, label: &str) {
        self.resources.push(label.to_owned());
        self.inflight_keys.push(format!("inflight_flows.{label}"));
    }

    fn on_event(&mut self, t_nanos: u64, ev: &Event) {
        self.events.push((t_nanos, *ev));
        self.update_metrics(t_nanos, ev);
    }
}

struct BusInner {
    level: ObsLevel,
    seed: u64,
    now: u64,
    digest: RunDigest,
    recorder: Recorder,
    sinks: Vec<Box<dyn ObsSink>>,
    /// Next aligned sim-time boundary at which a metric tick may fire.
    next_tick: u64,
    /// Sim-time width of one tick bucket.
    tick_interval: u64,
    /// Time of the last tick fired (so flush never double-ticks).
    last_tick: Option<u64>,
    /// Whether any event was recorded after the last tick. The sim loop
    /// advances the clock *before* emitting, so events at time `t` land
    /// after a tick at `t` — flush must re-tick to make the final frame
    /// reflect them.
    events_since_tick: bool,
}

impl std::fmt::Debug for BusInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BusInner")
            .field("level", &self.level)
            .field("seed", &self.seed)
            .field("now", &self.now)
            .field("events", &self.recorder.events.len())
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl BusInner {
    fn record(&mut self, ev: Event) {
        let t = self.now;
        // Digest first: sinks can never perturb the replay contract.
        self.digest.absorb(t, &ev);
        if self.level == ObsLevel::Full {
            self.recorder.on_event(t, &ev);
        }
        for s in &mut self.sinks {
            s.on_event(t, &ev);
        }
        self.events_since_tick = true;
    }

    /// Fire a metric tick at `t` if the clock crossed the next aligned
    /// boundary. Called on every clock advance; the alignment guarantees
    /// at most one tick per simulated interval regardless of how many
    /// events land inside it.
    fn maybe_tick(&mut self, t: u64) {
        if self.sinks.is_empty() || t < self.next_tick {
            return;
        }
        self.fire_tick(t);
        let interval = self.tick_interval.max(1);
        self.next_tick = (t / interval + 1) * interval;
    }

    fn fire_tick(&mut self, t: u64) {
        for s in &mut self.sinks {
            s.on_metric_tick(t, &self.recorder.metrics);
        }
        self.last_tick = Some(t);
        self.events_since_tick = false;
    }
}

/// The cloneable bus handle. `Default` (and [`ObsHandle::disabled`]) is
/// the null handle: every method is a no-op behind one branch.
#[derive(Debug, Clone, Default)]
pub struct ObsHandle(Option<Rc<RefCell<BusInner>>>);

impl ObsHandle {
    /// A live bus at the given level, or the null handle for
    /// [`ObsLevel::Off`].
    pub fn new(level: ObsLevel, seed: u64) -> Self {
        if level == ObsLevel::Off {
            return ObsHandle(None);
        }
        ObsHandle(Some(Rc::new(RefCell::new(BusInner {
            level,
            seed,
            now: 0,
            digest: RunDigest::new(seed),
            recorder: Recorder::default(),
            sinks: Vec::new(),
            next_tick: 0,
            tick_interval: DEFAULT_TICK_NANOS,
            last_tick: None,
            events_since_tick: false,
        }))))
    }

    /// The null handle.
    pub fn disabled() -> Self {
        ObsHandle(None)
    }

    /// Whether emissions do anything. Emission sites that must build a
    /// payload (e.g. look up a flow rate) should guard on this first.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Recording level.
    pub fn level(&self) -> ObsLevel {
        self.0.as_ref().map_or(ObsLevel::Off, |b| b.borrow().level)
    }

    /// Attach a live sink. Every subsequent event fans out to it, and
    /// metric ticks fire on sim-time boundaries. No-op on the null
    /// handle (live viewing requires at least [`ObsLevel::Digest`]).
    pub fn add_sink(&self, sink: Box<dyn ObsSink>) {
        if let Some(b) = &self.0 {
            let mut inner = b.borrow_mut();
            // Replay already-registered resources so late-attached sinks
            // know every label.
            let labels: Vec<String> = inner.recorder.resources.clone();
            let mut sink = sink;
            for (ix, l) in labels.iter().enumerate() {
                sink.on_resource(ix as u32, l);
            }
            inner.sinks.push(sink);
        }
    }

    /// Number of attached live sinks.
    pub fn sink_count(&self) -> usize {
        self.0.as_ref().map_or(0, |b| b.borrow().sinks.len())
    }

    /// Set the sim-time metric-tick interval (nanoseconds; clamped to
    /// ≥ 1). Ticks fire on aligned bucket boundaries, at most once per
    /// bucket — the deterministic throttle that keeps live consumption
    /// from scaling with event density.
    pub fn set_tick_interval(&self, nanos: u64) {
        if let Some(b) = &self.0 {
            b.borrow_mut().tick_interval = nanos.max(1);
        }
    }

    /// Advance the bus clock. Called by the simulation loop only. Fires
    /// a throttled metric tick when the clock crosses a tick boundary.
    #[inline]
    pub fn set_now(&self, t_nanos: u64) {
        if let Some(b) = &self.0 {
            let mut inner = b.borrow_mut();
            inner.now = t_nanos;
            inner.maybe_tick(t_nanos);
        }
    }

    /// Emit one event, stamped with the current bus clock.
    #[inline]
    pub fn emit(&self, ev: Event) {
        if let Some(b) = &self.0 {
            b.borrow_mut().record(ev);
        }
    }

    /// Register a resource label; call order defines resource indices and
    /// must match the emitter's `FlowRes::resource` numbering.
    pub fn register_resource(&self, label: &str) {
        if let Some(b) = &self.0 {
            let mut inner = b.borrow_mut();
            let ix = inner.recorder.resources.len() as u32;
            inner.recorder.on_resource(ix, label);
            // Split borrow: resources was just pushed, label lives there.
            let label = inner.recorder.resources[ix as usize].clone();
            for s in &mut inner.sinks {
                s.on_resource(ix, &label);
            }
        }
    }

    /// The digest so far, if the bus is live.
    pub fn digest(&self) -> Option<u64> {
        self.0.as_ref().map(|b| b.borrow().digest.value())
    }

    /// Number of events absorbed so far (digested, not just recorded).
    pub fn event_count(&self) -> u64 {
        self.0.as_ref().map_or(0, |b| b.borrow().digest.count())
    }

    /// End-of-run sink flush: fire one final metric tick at the current
    /// clock — unless a tick already fired at exactly this instant *and*
    /// no event landed since — then `on_flush` every sink. Does not touch
    /// the digest, the recorder or the metrics — flushing is invisible to
    /// the replay contract.
    pub fn flush_sinks(&self) {
        if let Some(b) = &self.0 {
            let mut inner = b.borrow_mut();
            if inner.sinks.is_empty() {
                return;
            }
            let t = inner.now;
            if inner.last_tick != Some(t) || inner.events_since_tick {
                inner.fire_tick(t);
            }
            for s in &mut inner.sinks {
                s.on_flush(t);
            }
        }
    }

    /// Extract the final report, draining the bus. Returns `None` for the
    /// null handle.
    pub fn take_report(&self) -> Option<ObsReport> {
        let b = self.0.as_ref()?;
        let mut inner = b.borrow_mut();
        Some(ObsReport {
            level: inner.level,
            seed: inner.seed,
            events: std::mem::take(&mut inner.recorder.events),
            resources: std::mem::take(&mut inner.recorder.resources),
            metrics: std::mem::take(&mut inner.recorder.metrics),
            digest: inner.digest.value(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingBufferSink;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn null_handle_is_inert() {
        let h = ObsHandle::disabled();
        assert!(!h.enabled());
        h.set_now(5);
        h.emit(Event::BgDone);
        h.add_sink(Box::new(RingBufferSink::new(4)));
        h.flush_sinks();
        assert_eq!(h.sink_count(), 0);
        assert_eq!(h.digest(), None);
        assert!(h.take_report().is_none());
    }

    #[test]
    fn digest_and_full_levels_agree_on_digest() {
        let mk = |level| {
            let h = ObsHandle::new(level, 42);
            h.set_now(nanos_from_secs(1.5));
            h.emit(Event::TaskReady { task: 0 });
            h.emit(Event::TaskStart {
                task: 0,
                node: 0,
                attempt: 0,
            });
            h.set_now(nanos_from_secs(2.0));
            h.emit(Event::TaskEnd {
                task: 0,
                node: 0,
                attempt: 1,
            });
            h.digest().unwrap()
        };
        assert_eq!(mk(ObsLevel::Digest), mk(ObsLevel::Full));
    }

    #[test]
    fn full_level_records_events_and_metrics() {
        let h = ObsHandle::new(ObsLevel::Full, 1);
        h.register_resource("net:w0");
        h.set_now(10);
        h.emit(Event::FlowStart {
            id: 1,
            bytes: 100,
            rate_bits: 1.0f64.to_bits(),
        });
        h.emit(Event::FlowRes { id: 1, resource: 0 });
        h.set_now(20);
        h.emit(Event::FlowEnd { id: 1 });
        let r = h.take_report().unwrap();
        assert_eq!(r.events.len(), 3);
        assert_eq!(r.metrics.counter("flows_started"), 1);
        assert_eq!(r.metrics.counter("flows_finished"), 1);
        assert_eq!(r.metrics.counter("flow_bytes"), 100);
        assert_eq!(
            r.metrics.series("inflight_flows.net:w0").unwrap(),
            &[(10, 1.0), (20, 0.0)]
        );
    }

    #[test]
    fn digest_level_records_nothing_but_digest() {
        let h = ObsHandle::new(ObsLevel::Digest, 1);
        h.emit(Event::BgDone);
        let r = h.take_report().unwrap();
        assert!(r.events.is_empty());
        assert_eq!(r.metrics.counter("bg_done"), 0);
        assert_eq!(h.event_count(), 1, "the event was still digested");
        assert_ne!(r.digest, 0);
    }

    /// A sink sharing its observations with the test through an `Rc`.
    #[derive(Default)]
    struct Shared {
        events: Vec<(u64, Event)>,
        ticks: Vec<u64>,
        resources: Vec<(u32, String)>,
        flushes: u32,
    }
    struct SharedSink(Rc<RefCell<Shared>>);
    impl ObsSink for SharedSink {
        fn on_resource(&mut self, ix: u32, label: &str) {
            self.0.borrow_mut().resources.push((ix, label.to_owned()));
        }
        fn on_event(&mut self, t: u64, ev: &Event) {
            self.0.borrow_mut().events.push((t, *ev));
        }
        fn on_metric_tick(&mut self, t: u64, _m: &Metrics) {
            self.0.borrow_mut().ticks.push(t);
        }
        fn on_flush(&mut self, _t: u64) {
            self.0.borrow_mut().flushes += 1;
        }
    }

    #[test]
    fn sinks_see_every_event_even_at_digest_level() {
        let shared = Rc::new(RefCell::new(Shared::default()));
        let h = ObsHandle::new(ObsLevel::Digest, 1);
        h.add_sink(Box::new(SharedSink(shared.clone())));
        h.set_now(10);
        h.emit(Event::TaskReady { task: 3 });
        h.set_now(20);
        h.emit(Event::BgDone);
        let s = shared.borrow();
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.events[0], (10, Event::TaskReady { task: 3 }));
    }

    #[test]
    fn attaching_a_sink_does_not_change_the_digest() {
        let run = |attach: bool| {
            let h = ObsHandle::new(ObsLevel::Full, 9);
            if attach {
                h.add_sink(Box::new(RingBufferSink::new(2)));
            }
            for t in 0..50u64 {
                h.set_now(t * 77_000_000);
                h.emit(Event::TaskReady { task: t as u32 });
            }
            h.flush_sinks();
            h.digest().unwrap()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn ticks_fire_at_most_once_per_interval() {
        let shared = Rc::new(RefCell::new(Shared::default()));
        let h = ObsHandle::new(ObsLevel::Full, 1);
        h.set_tick_interval(100);
        h.add_sink(Box::new(SharedSink(shared.clone())));
        // Many clock advances inside the same bucket: one tick each time
        // the clock *crosses* a boundary, regardless of event density.
        for t in [5u64, 7, 12, 99, 101, 103, 150, 420] {
            h.set_now(t);
            h.emit(Event::BgDone);
        }
        // t=5 fires (first boundary at 0 already passed), next at 100;
        // t=101 fires, next at 200; t=420 fires.
        assert_eq!(shared.borrow().ticks, vec![5, 101, 420]);
    }

    #[test]
    fn flush_does_not_retick_when_nothing_new_happened() {
        let shared = Rc::new(RefCell::new(Shared::default()));
        let h = ObsHandle::new(ObsLevel::Digest, 1);
        h.set_tick_interval(100);
        h.add_sink(Box::new(SharedSink(shared.clone())));
        h.set_now(250);
        h.flush_sinks();
        // One tick at 250 (crossing); no events after it, so flush must
        // not re-tick at 250.
        assert_eq!(shared.borrow().ticks, vec![250]);
        assert_eq!(shared.borrow().flushes, 1);
    }

    #[test]
    fn flush_reticks_for_events_after_the_last_tick() {
        let shared = Rc::new(RefCell::new(Shared::default()));
        let h = ObsHandle::new(ObsLevel::Digest, 1);
        h.set_tick_interval(100);
        h.add_sink(Box::new(SharedSink(shared.clone())));
        h.set_now(250); // tick fires here, before the event lands
        h.emit(Event::BgDone);
        h.flush_sinks();
        // The final tick must reflect the trailing event, even at the
        // same instant as the previous tick.
        assert_eq!(shared.borrow().ticks, vec![250, 250]);
        assert_eq!(shared.borrow().flushes, 1);
    }

    #[test]
    fn flush_ticks_when_run_end_missed_the_boundary() {
        let shared = Rc::new(RefCell::new(Shared::default()));
        let h = ObsHandle::new(ObsLevel::Digest, 1);
        h.set_tick_interval(100);
        h.add_sink(Box::new(SharedSink(shared.clone())));
        h.set_now(50);
        h.emit(Event::BgDone);
        h.set_now(60);
        h.emit(Event::BgDone);
        h.flush_sinks();
        // Tick at 50 (first crossing), none at 60, final tick at 60.
        assert_eq!(shared.borrow().ticks, vec![50, 60]);
    }

    #[test]
    fn late_attached_sink_sees_existing_resources() {
        let shared = Rc::new(RefCell::new(Shared::default()));
        let h = ObsHandle::new(ObsLevel::Full, 1);
        h.register_resource("disk.w0");
        h.register_resource("nic.w0");
        h.add_sink(Box::new(SharedSink(shared.clone())));
        h.register_resource("nic.w1");
        let s = shared.borrow();
        let labels: Vec<&str> = s.resources.iter().map(|(_, l)| l.as_str()).collect();
        assert_eq!(labels, vec!["disk.w0", "nic.w0", "nic.w1"]);
        assert_eq!(s.resources[2].0, 2);
    }
}
