//! The streaming sink API: live consumers of the observability stream.
//!
//! A [`ObsSink`] is an observer the bus fans every event out to *while
//! the run is in flight* — the streaming counterpart of the post-hoc
//! exporters (Chrome trace, OTLP, folded stacks), and the foundation of
//! the live TUI viewer ([`crate::tui`]).
//!
//! Determinism rules (see DESIGN.md § Live streaming):
//!
//! - **Sinks are observers, never participants.** The bus digests every
//!   event *before* fanning it out, and sinks have no way to emit back
//!   into the bus (re-entrant emission panics on the `RefCell`). A run
//!   with any set of sinks attached produces the identical digest,
//!   metrics and exporter bytes as the same run with none.
//! - **Sim-time throttle.** Metric ticks fire at most once per simulated
//!   interval (aligned bucket boundaries), driven purely by the bus
//!   clock — never by wall clock — so tick times replay identically.
//! - **Bounded buffering, no back-pressure.** Sinks must keep O(window)
//!   state (ring buffers, pruned interval sets). A slow consumer can
//!   only slow the process down; it can never change what the
//!   simulation computes.

use crate::event::Event;

/// A live consumer of the observability stream.
///
/// Implementations must treat every callback as read-only with respect
/// to the simulation: they may render, buffer (bounded) or forward, but
/// they cannot influence the run. Callbacks are invoked while the bus is
/// mutably borrowed, so calling back into any [`crate::ObsHandle`] from
/// a sink panics by construction.
pub trait ObsSink {
    /// A resource label was registered (index order matches the
    /// `FlowRes::resource` numbering). Default: ignore.
    fn on_resource(&mut self, ix: u32, label: &str) {
        let _ = (ix, label);
    }

    /// One event, stamped with the bus clock (nanoseconds of simulated
    /// time). Called for every digested event, at `Digest` level too —
    /// live consumption does not require the unbounded `Full` event log.
    fn on_event(&mut self, t_nanos: u64, ev: &Event);

    /// At most one call per simulated throttle interval (see
    /// [`crate::ObsHandle::set_tick_interval`]), plus exactly one final
    /// tick at flush time if the run did not end on a boundary. Sinks
    /// keep their own accumulators of what they saw in `on_event`.
    fn on_metric_tick(&mut self, t_nanos: u64) {
        let _ = t_nanos;
    }

    /// The run is over; flush any buffered output and restore terminal
    /// state. Called exactly once, after the final metric tick.
    fn on_flush(&mut self, t_nanos: u64) {
        let _ = t_nanos;
    }
}

/// A bounded in-memory event buffer: the simplest useful sink, and the
/// reference for the "bounded, back-pressure-free" contract. Keeps the
/// most recent `cap` events; older ones fall off the front.
#[derive(Debug)]
pub struct RingBufferSink {
    cap: usize,
    events: std::collections::VecDeque<(u64, Event)>,
    ticks: Vec<u64>,
    flushed_at: Option<u64>,
}

impl RingBufferSink {
    /// A ring buffer holding at most `cap` events (`cap ≥ 1`).
    pub fn new(cap: usize) -> Self {
        RingBufferSink {
            cap: cap.max(1),
            events: std::collections::VecDeque::new(),
            ticks: Vec::new(),
            flushed_at: None,
        }
    }

    /// The buffered (time, event) pairs, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(u64, Event)> {
        self.events.iter()
    }

    /// Times at which metric ticks fired.
    pub fn ticks(&self) -> &[u64] {
        &self.ticks
    }

    /// The flush time, once flushed.
    pub fn flushed_at(&self) -> Option<u64> {
        self.flushed_at
    }
}

impl ObsSink for RingBufferSink {
    fn on_event(&mut self, t_nanos: u64, ev: &Event) {
        if self.events.len() == self.cap {
            self.events.pop_front();
        }
        self.events.push_back((t_nanos, *ev));
    }

    fn on_metric_tick(&mut self, t_nanos: u64) {
        self.ticks.push(t_nanos);
    }

    fn on_flush(&mut self, t_nanos: u64) {
        self.flushed_at = Some(t_nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut s = RingBufferSink::new(2);
        s.on_event(1, &Event::BgDone);
        s.on_event(2, &Event::TaskReady { task: 7 });
        s.on_event(3, &Event::BgDone);
        let ts: Vec<u64> = s.events().map(|&(t, _)| t).collect();
        assert_eq!(ts, vec![2, 3]);
    }

    #[test]
    fn zero_cap_is_clamped() {
        let mut s = RingBufferSink::new(0);
        s.on_event(1, &Event::BgDone);
        assert_eq!(s.events().count(), 1);
    }
}
