//! Flow capture and open-loop replay.
//!
//! [`FlowCapture`] is an [`ObsSink`] that records the simulator's flow
//! schedule (`FlowStart` + `FlowRes` path, `FlowEnd`, `FlowCancel`, each
//! with its simulated timestamp). [`replay`] feeds the recorded starts
//! and cancels, at their recorded instants, through a fresh
//! [`FlowEngine`] and lets the engine decide every completion. The wall
//! time of that loop is the flow solver's share of the run, measured
//! without the calendar, the driver or the storage planners around it.

use crate::timed::Caps;
use simcore::{FlowEngine, FlowId, FlowSpec, ResourceId, SimTime};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::{Duration, Instant};
use wfobs::{Event, ObsSink};

/// One recorded flow-lifecycle event.
#[derive(Debug, Clone)]
pub enum FlowRec {
    /// A flow started.
    Start {
        /// Simulated nanoseconds.
        t: u64,
        /// Simulator flow id.
        id: u64,
        /// Bytes to move.
        bytes: u64,
        /// Resources crossed.
        path: Vec<ResourceId>,
    },
    /// A flow delivered its last byte.
    End {
        /// Simulated nanoseconds.
        t: u64,
        /// Simulator flow id.
        id: u64,
    },
    /// A flow was cancelled by the kill path.
    Cancel {
        /// Simulated nanoseconds.
        t: u64,
        /// Simulator flow id.
        id: u64,
    },
}

/// The recorded schedule, in emission order.
pub type FlowLog = Vec<FlowRec>;

/// The capturing sink. Attach it with `ObsHandle::add_sink`; read the log
/// through the shared handle after the run.
pub struct FlowCapture(pub Rc<RefCell<FlowLog>>);

impl ObsSink for FlowCapture {
    fn on_event(&mut self, t: u64, ev: &Event) {
        let mut log = self.0.borrow_mut();
        match *ev {
            Event::FlowStart { id, bytes, .. } => log.push(FlowRec::Start {
                t,
                id,
                bytes,
                path: Vec::new(),
            }),
            Event::FlowRes { id, resource } => match log.last_mut() {
                Some(FlowRec::Start { id: last, path, .. }) if *last == id => {
                    path.push(ResourceId::from_index(resource as usize));
                }
                _ => panic!("FlowRes for flow {id} does not follow its FlowStart"),
            },
            Event::FlowEnd { id } => log.push(FlowRec::End { t, id }),
            Event::FlowCancel { id } => log.push(FlowRec::Cancel { t, id }),
            _ => {}
        }
    }
}

/// What a replay measured.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Wall time of the replay loop.
    pub time: Duration,
    /// Flows started.
    pub flows: u64,
    /// Completions the engine produced.
    pub completions: u64,
    /// Completions in the recorded schedule.
    pub recorded_completions: u64,
    /// Cancels replayed.
    pub cancels: u64,
    /// Last completion the engine produced.
    pub last_completion: SimTime,
    /// Last completion in the recorded schedule.
    pub recorded_last: SimTime,
    /// Most flows active at once.
    pub peak_active: usize,
    /// Mean resources per flow path.
    pub mean_path_len: f64,
}

impl Replay {
    /// The exactness check: same completion count, and the last
    /// completion within 1e-6 relative of the recorded one. `Err` names
    /// the mismatch.
    pub fn check(&self) -> Result<(), String> {
        if self.completions != self.recorded_completions {
            return Err(format!(
                "replay completed {} flows, the run {}",
                self.completions, self.recorded_completions
            ));
        }
        let (a, b) = (
            self.last_completion.as_secs_f64(),
            self.recorded_last.as_secs_f64(),
        );
        if (a - b).abs() > 1e-6 * b.abs() {
            return Err(format!("replay ends at {a} s, the run at {b} s"));
        }
        Ok(())
    }
}

enum Action {
    Start { t: SimTime, spec: FlowSpec },
    Cancel { t: SimTime, id: usize },
}

/// Replay `log` through a fresh [`FlowEngine`] whose resource `i` has
/// capacity `capacities[i]` (`None` for resources the run never used).
/// Each flow's cap is taken from `caps`, the legs the storage decorator
/// saw, matched on `(bytes, path)` in planning order. `Err` when a
/// recorded flow matches no planned leg.
pub fn replay(
    log: &[FlowRec],
    capacities: &[Option<f64>],
    mut caps: Caps,
) -> Result<Replay, String> {
    // Everything the timed loop needs is built first, so the loop measures
    // the engine alone. The simulator numbers flows 0, 1, 2… in start
    // order, and so does the replay engine; `end_pos[id]` is the index of
    // the first action after flow `id`'s recorded completion.
    let mut actions = Vec::with_capacity(log.len());
    let mut end_pos: Vec<usize> = Vec::new();
    let mut recorded_completions = 0;
    let mut recorded_last = SimTime::ZERO;
    let mut path_total = 0usize;
    for rec in log {
        match rec {
            FlowRec::Start { t, id, bytes, path } => {
                if *id != end_pos.len() as u64 {
                    return Err(format!("flow ids are not dense at flow {id}"));
                }
                let key = (*bytes, path.clone());
                let rate_cap = caps
                    .get_mut(&key)
                    .and_then(VecDeque::pop_front)
                    .ok_or_else(|| format!("flow {id} ({bytes} B) matches no planned leg"))?;
                let (bytes, path) = key;
                end_pos.push(usize::MAX);
                path_total += path.len();
                let spec = FlowSpec {
                    bytes,
                    path,
                    rate_cap,
                };
                actions.push(Action::Start {
                    t: SimTime::from_nanos(*t),
                    spec,
                });
            }
            FlowRec::Cancel { t, id } => actions.push(Action::Cancel {
                t: SimTime::from_nanos(*t),
                id: *id as usize,
            }),
            FlowRec::End { t, id } => {
                let slot = end_pos
                    .get_mut(*id as usize)
                    .ok_or_else(|| format!("flow {id} ends before it starts"))?;
                *slot = actions.len();
                recorded_completions += 1;
                recorded_last = recorded_last.max(SimTime::from_nanos(*t));
            }
        }
    }
    let flows = end_pos.len() as u64;

    let mut engine: FlowEngine<()> = FlowEngine::new();
    for (i, c) in capacities.iter().enumerate() {
        engine.add_resource(format!("r{i}"), c.unwrap_or(1.0));
    }
    // Engine handles by flow number (ascending, so searchable).
    let mut fids: Vec<FlowId> = Vec::with_capacity(end_pos.len());
    let mut completions = 0;
    let mut cancels = 0;
    let mut last_completion = SimTime::ZERO;
    let mut peak_active = 0;

    let start = Instant::now();
    for (pos, action) in actions.into_iter().enumerate() {
        let ta = match &action {
            Action::Start { t, .. } | Action::Cancel { t, .. } => *t,
        };
        // Completions strictly before the action come first; a tie goes
        // to whichever the run itself did first.
        while let Some((tc, fid)) = engine.next_completion() {
            let first =
                tc < ta || (tc == ta && fids.binary_search(&fid).is_ok_and(|n| end_pos[n] <= pos));
            if !first {
                break;
            }
            engine.complete(tc, fid);
            completions += 1;
            last_completion = tc;
        }
        match action {
            Action::Start { t, spec } => {
                fids.push(engine.start(t, spec, ()));
                peak_active = peak_active.max(engine.active_flows());
            }
            Action::Cancel { t, id } => {
                let live = fids.get(id).and_then(|&fid| engine.cancel(t, fid));
                cancels += u64::from(live.is_some());
            }
        }
    }
    while let Some((tc, fid)) = engine.next_completion() {
        engine.complete(tc, fid);
        completions += 1;
        last_completion = tc;
    }
    let time = start.elapsed();

    Ok(Replay {
        time,
        flows,
        completions,
        recorded_completions,
        cancels,
        last_completion,
        recorded_last,
        peak_active,
        mean_path_len: if flows == 0 {
            0.0
        } else {
            path_total as f64 / flows as f64
        },
    })
}
