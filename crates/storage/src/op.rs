//! The vocabulary storage systems use to describe I/O work.
//!
//! A storage operation (read a file on a node, write a file, stage a file
//! in from S3…) is *planned* by the storage system as an [`OpPlan`]: a
//! sequence of [`Stage`]s, each of which pays a fixed latency (RPC
//! round-trips, request overhead, metadata lookups) and then moves bytes as
//! one or more parallel fluid-flow legs. The workflow engine executes plans
//! against the simulation; the storage system never touches the event loop
//! directly. Metadata side effects (cache contents, file placement) are
//! committed when the plan is made — sound here because the paper's
//! workloads are strictly write-once (§V).

use serde::Serialize;
use simcore::{FlowSpec, ResourceId, SimDuration};

/// One fluid-flow leg of a stage.
#[derive(Debug, Clone)]
pub struct FlowLeg {
    /// Bytes to move.
    pub bytes: u64,
    /// Resources crossed (disks, NICs, backend services).
    pub path: Vec<ResourceId>,
    /// Optional per-flow cap in bytes/s (first-write penalty, per-stream
    /// protocol limits).
    pub rate_cap: Option<f64>,
}

impl FlowLeg {
    /// A leg with no per-flow cap.
    pub fn new(bytes: u64, path: Vec<ResourceId>) -> Self {
        FlowLeg {
            bytes,
            path,
            rate_cap: None,
        }
    }

    /// Apply a per-flow rate cap.
    pub fn with_cap(mut self, cap: f64) -> Self {
        self.rate_cap = Some(cap);
        self
    }

    /// Convert to a [`FlowSpec`] for the simulator.
    pub fn to_spec(&self) -> FlowSpec {
        self.clone().into()
    }
}

impl From<FlowLeg> for FlowSpec {
    /// Move the leg into a [`FlowSpec`], path and all.
    fn from(leg: FlowLeg) -> Self {
        FlowSpec {
            bytes: leg.bytes,
            path: leg.path,
            rate_cap: leg.rate_cap,
        }
    }
}

/// A latency followed by parallel flow legs. The stage completes when every
/// leg has completed.
#[derive(Debug, Clone, Default)]
pub struct Stage {
    /// Fixed delay before the legs start (request/RPC/metadata overhead).
    pub latency: SimDuration,
    /// Parallel transfers.
    pub legs: Vec<FlowLeg>,
}

impl Stage {
    /// A latency-only stage.
    pub fn latency(d: SimDuration) -> Self {
        Stage {
            latency: d,
            legs: Vec::new(),
        }
    }

    /// A stage with one leg and no latency.
    pub fn leg(leg: FlowLeg) -> Self {
        Stage {
            latency: SimDuration::ZERO,
            legs: vec![leg],
        }
    }

    /// A stage with latency followed by one leg.
    pub fn lat_leg(d: SimDuration, leg: FlowLeg) -> Self {
        Stage {
            latency: d,
            legs: vec![leg],
        }
    }
}

/// Bookkeeping messages a background stage can deliver back to the storage
/// system when it completes (see
/// [`StorageSystem::on_background_done`](crate::traits::StorageSystem::on_background_done)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Note {
    /// An NFS write-back flush of `bytes` reached the server disk.
    NfsFlushed {
        /// Bytes flushed.
        bytes: u64,
    },
}

/// The full plan for one storage operation.
#[derive(Debug, Clone, Default)]
pub struct OpPlan {
    /// Foreground stages, executed in order; the operation completes when
    /// the last stage does.
    pub stages: Vec<Stage>,
    /// Background stages (e.g. NFS write-back flushes): started alongside
    /// the first foreground stage, not awaited.
    pub background: Vec<(Stage, Option<Note>)>,
}

impl OpPlan {
    /// A plan that completes instantly (e.g. a cache hit with negligible
    /// cost, or a no-op stage-in).
    pub fn empty() -> Self {
        OpPlan::default()
    }

    /// A single-stage plan.
    pub fn one(stage: Stage) -> Self {
        OpPlan {
            stages: vec![stage],
            background: Vec::new(),
        }
    }

    /// Append a foreground stage.
    pub fn then(mut self, stage: Stage) -> Self {
        self.stages.push(stage);
        self
    }

    /// Attach a background stage with an optional completion note.
    pub fn with_background(mut self, stage: Stage, note: Option<Note>) -> Self {
        self.background.push((stage, note));
        self
    }

    /// True when the plan does nothing.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty() && self.background.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Sim;

    #[test]
    fn leg_to_spec_round_trip() {
        let mut sim: Sim<()> = Sim::new();
        let r = sim.add_resource("r", 100.0);
        let leg = FlowLeg::new(500, vec![r]).with_cap(50.0);
        let spec = leg.to_spec();
        assert_eq!(spec.bytes, 500);
        assert_eq!(spec.path, vec![r]);
        assert_eq!(spec.rate_cap, Some(50.0));
    }

    #[test]
    fn plan_accounting() {
        let mut sim: Sim<()> = Sim::new();
        let r = sim.add_resource("r", 100.0);
        let plan = OpPlan::one(Stage::lat_leg(
            SimDuration::from_millis(2),
            FlowLeg::new(100, vec![r]),
        ))
        .then(Stage::lat_leg(
            SimDuration::from_millis(3),
            FlowLeg::new(200, vec![r]),
        ));
        assert_eq!(plan.stages.len(), 2);
        assert!(!plan.is_empty());
        assert!(OpPlan::empty().is_empty());
    }

    #[test]
    fn background_notes_attach() {
        let plan = OpPlan::empty().with_background(
            Stage::latency(SimDuration::from_millis(1)),
            Some(Note::NfsFlushed { bytes: 42 }),
        );
        assert_eq!(plan.background.len(), 1);
        assert_eq!(plan.background[0].1, Some(Note::NfsFlushed { bytes: 42 }));
    }
}
