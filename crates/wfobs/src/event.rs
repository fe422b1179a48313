//! The event vocabulary of the observability bus.
//!
//! Every layer of the simulator (the event calendar, the workflow engine,
//! the storage backends) describes what it is doing as [`Event`]s. Events
//! are small `Copy` records over integer ids — the bus never touches
//! strings or heap memory on the emission path. Names (task names, node
//! labels, resource labels) are joined back in by exporters, which run
//! after the simulation finishes.
//!
//! Determinism rules: events are stamped with *simulated* time only (never
//! wall clock), and every emission point is reached identically under the
//! same seed, so the stream — and hence the [`RunDigest`](crate::digest::RunDigest)
//! over it — is byte-identical across replays.

/// A task-lifecycle phase, in execution order. Dispatch overhead is the
/// implicit phase between `TaskStart` and the first `TaskPhase` mark.
/// The discriminants are the run digest's encoding (`p as u8`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// POSIX operation storm (NFS per-op bottleneck).
    Ops = 0,
    /// Stage-in transfers (S3 GETs, direct-transfer pulls).
    StageIn = 1,
    /// Input reads through the storage system.
    Read = 2,
    /// Pure compute.
    Compute = 3,
    /// Output writes through the storage system.
    Write = 4,
    /// Stage-out transfers (S3 PUTs).
    StageOut = 5,
}

impl Phase {
    /// Every phase in execution order; `p as usize` is `p`'s index here.
    pub const ALL: [Phase; 6] = [
        Phase::Ops,
        Phase::StageIn,
        Phase::Read,
        Phase::Compute,
        Phase::Write,
        Phase::StageOut,
    ];

    /// Stable label used by exporters.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Ops => "ops",
            Phase::StageIn => "stage-in",
            Phase::Read => "read",
            Phase::Compute => "compute",
            Phase::Write => "write",
            Phase::StageOut => "stage-out",
        }
    }
}

/// The kind of a planned storage operation. The discriminants are the run
/// digest's encoding (`k as u8`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A task read of one file.
    Read = 0,
    /// A task write of one file.
    Write = 1,
    /// Per-job stage-in of inputs.
    StageIn = 2,
    /// Per-job stage-out of outputs.
    StageOut = 3,
    /// A POSIX operation storm (metadata calls, no payload bytes).
    OpStorm = 4,
}

impl OpKind {
    /// Stable label used by exporters.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::StageIn => "stage_in",
            OpKind::StageOut => "stage_out",
            OpKind::OpStorm => "op_storm",
        }
    }
}

/// An injected fault class. The discriminants are the run digest's
/// encoding (`k as u8`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A worker instance crashed.
    NodeCrash = 0,
    /// The spot market revoked an instance.
    SpotTermination = 1,
    /// A storage service/peer failed.
    StorageFailure = 2,
}

impl FaultKind {
    /// Stable label used by exporters.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::NodeCrash => "node_crash",
            FaultKind::SpotTermination => "spot_termination",
            FaultKind::StorageFailure => "storage_failure",
        }
    }
}

/// One observability event. Timestamps live outside the payload (the bus
/// stamps each emission with its current simulated time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A task's dependencies are satisfied; it joined the ready queue.
    TaskReady {
        /// Task id.
        task: u32,
    },
    /// A task acquired a slot (dispatch); opens the task span and the
    /// implicit dispatch-overhead phase.
    TaskStart {
        /// Task id.
        task: u32,
        /// Worker node id.
        node: u32,
        /// Execution attempts so far (0 on the first try).
        attempt: u32,
    },
    /// A task entered a lifecycle phase (closes the previous one).
    TaskPhase {
        /// Task id.
        task: u32,
        /// Worker node id.
        node: u32,
        /// The phase being entered.
        phase: Phase,
    },
    /// A task finished and released its slot; closes the task span.
    TaskEnd {
        /// Task id.
        task: u32,
        /// Worker node id.
        node: u32,
        /// Total executions (1 = no retries).
        attempt: u32,
    },
    /// A fault killed an in-flight execution.
    TaskKilled {
        /// Task id.
        task: u32,
        /// Worker node id.
        node: u32,
        /// Partially-executed work thrown away, nanoseconds.
        wasted_nanos: u64,
    },
    /// A transient failure aborted an execution at compute end.
    TaskFailed {
        /// Task id.
        task: u32,
        /// Worker node id.
        node: u32,
    },
    /// The ready queue changed size (sampled on event boundaries).
    ReadyDepth {
        /// Queue depth after the change.
        depth: u32,
    },

    /// A fluid flow started.
    FlowStart {
        /// Flow id.
        id: u64,
        /// Bytes to move.
        bytes: u64,
        /// Initial max–min fair rate, as `f64::to_bits` (bit-stable).
        rate_bits: u64,
    },
    /// One resource crossed by the flow that just started (one event per
    /// path element, emitted right after its `FlowStart`).
    FlowRes {
        /// Flow id.
        id: u64,
        /// Resource index.
        resource: u32,
    },
    /// A fluid flow delivered its last byte.
    FlowEnd {
        /// Flow id.
        id: u64,
    },
    /// A fluid flow was cancelled (kill path).
    FlowCancel {
        /// Flow id.
        id: u64,
    },

    /// A storage system planned an operation.
    StorageOp {
        /// Operation kind.
        op: OpKind,
        /// Node the operation is for.
        node: u32,
        /// Foreground payload bytes (0 for metadata-only ops).
        bytes: u64,
    },
    /// A read was served from a cache.
    CacheHit {
        /// Node whose cache hit.
        node: u32,
    },
    /// A read missed every cache.
    CacheMiss {
        /// Node that missed.
        node: u32,
    },

    /// A background (writeback) stage joined the queue.
    BgEnqueue {
        /// Queue depth after the enqueue.
        depth: u32,
    },
    /// A background stage left the queue and started.
    BgStart {
        /// Queue depth after the dequeue.
        depth: u32,
    },
    /// A background stage completed.
    BgDone,

    /// A fault was injected.
    Fault {
        /// Fault class.
        kind: FaultKind,
        /// Victim node id.
        node: u32,
    },
    /// Storage failover reported lost files.
    FilesLost {
        /// Number of files lost.
        count: u32,
    },
    /// The rescue-DAG pass resubmitted a completed task.
    RescueResubmit {
        /// Task id.
        task: u32,
    },
    /// A crashed/terminated worker came back up.
    NodeRecovered {
        /// Worker node id.
        node: u32,
    },

    /// A billing segment opened (instance incarnation came up).
    SegmentOpen {
        /// Cluster node id.
        node: u32,
        /// Whether the incarnation is a spot instance.
        spot: bool,
    },
    /// A billing segment closed (instance went away or run finished).
    SegmentClose {
        /// Cluster node id.
        node: u32,
    },
}

impl Event {
    /// Feed this event's canonical byte encoding into a digest: a unique
    /// tag byte followed by every field in little-endian order. The
    /// encoding is part of the replay contract — changing it invalidates
    /// checked-in golden digests.
    pub fn encode_into(&self, sink: &mut impl FnMut(&[u8])) {
        match *self {
            Event::TaskReady { task } => {
                sink(&[0]);
                sink(&task.to_le_bytes());
            }
            Event::TaskStart {
                task,
                node,
                attempt,
            } => {
                sink(&[1]);
                sink(&task.to_le_bytes());
                sink(&node.to_le_bytes());
                sink(&attempt.to_le_bytes());
            }
            Event::TaskPhase { task, node, phase } => {
                sink(&[2, phase as u8]);
                sink(&task.to_le_bytes());
                sink(&node.to_le_bytes());
            }
            Event::TaskEnd {
                task,
                node,
                attempt,
            } => {
                sink(&[3]);
                sink(&task.to_le_bytes());
                sink(&node.to_le_bytes());
                sink(&attempt.to_le_bytes());
            }
            Event::TaskKilled {
                task,
                node,
                wasted_nanos,
            } => {
                sink(&[4]);
                sink(&task.to_le_bytes());
                sink(&node.to_le_bytes());
                sink(&wasted_nanos.to_le_bytes());
            }
            Event::TaskFailed { task, node } => {
                sink(&[5]);
                sink(&task.to_le_bytes());
                sink(&node.to_le_bytes());
            }
            Event::ReadyDepth { depth } => {
                sink(&[6]);
                sink(&depth.to_le_bytes());
            }
            Event::FlowStart {
                id,
                bytes,
                rate_bits,
            } => {
                sink(&[7]);
                sink(&id.to_le_bytes());
                sink(&bytes.to_le_bytes());
                sink(&rate_bits.to_le_bytes());
            }
            Event::FlowRes { id, resource } => {
                sink(&[8]);
                sink(&id.to_le_bytes());
                sink(&resource.to_le_bytes());
            }
            Event::FlowEnd { id } => {
                sink(&[9]);
                sink(&id.to_le_bytes());
            }
            Event::FlowCancel { id } => {
                sink(&[10]);
                sink(&id.to_le_bytes());
            }
            Event::StorageOp { op, node, bytes } => {
                sink(&[11, op as u8]);
                sink(&node.to_le_bytes());
                sink(&bytes.to_le_bytes());
            }
            Event::CacheHit { node } => {
                sink(&[12]);
                sink(&node.to_le_bytes());
            }
            Event::CacheMiss { node } => {
                sink(&[13]);
                sink(&node.to_le_bytes());
            }
            Event::BgEnqueue { depth } => {
                sink(&[14]);
                sink(&depth.to_le_bytes());
            }
            Event::BgStart { depth } => {
                sink(&[15]);
                sink(&depth.to_le_bytes());
            }
            Event::BgDone => sink(&[16]),
            Event::Fault { kind, node } => {
                sink(&[17, kind as u8]);
                sink(&node.to_le_bytes());
            }
            Event::FilesLost { count } => {
                sink(&[18]);
                sink(&count.to_le_bytes());
            }
            Event::RescueResubmit { task } => {
                sink(&[19]);
                sink(&task.to_le_bytes());
            }
            Event::NodeRecovered { node } => {
                sink(&[20]);
                sink(&node.to_le_bytes());
            }
            Event::SegmentOpen { node, spot } => {
                sink(&[21, u8::from(spot)]);
                sink(&node.to_le_bytes());
            }
            Event::SegmentClose { node } => {
                sink(&[22]);
                sink(&node.to_le_bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoding(ev: &Event) -> Vec<u8> {
        let mut out = Vec::new();
        ev.encode_into(&mut |b| out.extend_from_slice(b));
        out
    }

    #[test]
    fn encodings_are_distinct_across_variants() {
        let events = [
            Event::TaskReady { task: 1 },
            Event::TaskEnd {
                task: 1,
                node: 0,
                attempt: 1,
            },
            Event::FlowEnd { id: 1 },
            Event::FlowCancel { id: 1 },
            Event::CacheHit { node: 1 },
            Event::CacheMiss { node: 1 },
            Event::BgDone,
            Event::SegmentClose { node: 1 },
        ];
        for (i, a) in events.iter().enumerate() {
            for b in events.iter().skip(i + 1) {
                assert_ne!(encoding(a), encoding(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn phase_tag_distinguishes_phase_marks() {
        let a = Event::TaskPhase {
            task: 3,
            node: 0,
            phase: Phase::Read,
        };
        let b = Event::TaskPhase {
            task: 3,
            node: 0,
            phase: Phase::Write,
        };
        assert_ne!(encoding(&a), encoding(&b));
    }

    #[test]
    fn phase_all_is_in_index_order() {
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(p as usize, i, "{p:?}");
        }
        assert!(Phase::ALL.windows(2).all(|w| w[0] < w[1]));
    }
}
