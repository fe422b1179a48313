//! The foreground-operation ledger every backend keeps.
//!
//! A backend plans an operation and records it here in one call: the
//! ledger bumps the matching [`StorageOpStats`] counters and emits the
//! matching event on the observability bus, so the two never disagree.

use crate::traits::StorageOpStats;
use vcluster::NodeId;
use wfobs::{Event, ObsHandle, OpKind};

/// A backend's operation counters and its bus handle (the null handle
/// until [`OpLedger::attach`]).
#[derive(Debug, Default)]
pub(crate) struct OpLedger {
    stats: StorageOpStats,
    obs: ObsHandle,
}

impl OpLedger {
    /// Report to `obs` from now on.
    pub(crate) fn attach(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// The counters so far.
    pub(crate) fn stats(&self) -> StorageOpStats {
        self.stats
    }

    /// One planned operation of `bytes` on `node`. Reads and writes also
    /// count towards the foreground totals.
    pub(crate) fn op(&mut self, op: OpKind, node: NodeId, bytes: u64) {
        match op {
            OpKind::Read => {
                self.stats.reads += 1;
                self.stats.bytes_read += bytes;
            }
            OpKind::Write => {
                self.stats.writes += 1;
                self.stats.bytes_written += bytes;
            }
            OpKind::StageIn | OpKind::StageOut | OpKind::OpStorm => {}
        }
        self.obs.emit(Event::StorageOp {
            op,
            node: node.0,
            bytes,
        });
    }

    /// A read served from a cache on `node`'s behalf.
    pub(crate) fn hit(&mut self, node: NodeId) {
        self.stats.cache_hits += 1;
        self.obs.emit(Event::CacheHit { node: node.0 });
    }

    /// A read that missed every cache.
    pub(crate) fn miss(&mut self, node: NodeId) {
        self.stats.cache_misses += 1;
        self.obs.emit(Event::CacheMiss { node: node.0 });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfobs::ObsLevel;

    #[test]
    fn counters_and_bus_agree() {
        let obs = ObsHandle::new(ObsLevel::Full, 1);
        let mut ledger = OpLedger::default();
        ledger.attach(obs.clone());
        ledger.op(OpKind::Read, NodeId(0), 10);
        ledger.op(OpKind::Write, NodeId(1), 20);
        ledger.op(OpKind::StageIn, NodeId(0), 30);
        ledger.hit(NodeId(0));
        ledger.miss(NodeId(1));
        let st = ledger.stats();
        assert_eq!((st.reads, st.bytes_read), (1, 10));
        assert_eq!((st.writes, st.bytes_written), (1, 20));
        assert_eq!((st.cache_hits, st.cache_misses), (1, 1));
        let report = obs.take_report().expect("Full keeps a report");
        let events: Vec<Event> = report.events.into_iter().map(|(_, e)| e).collect();
        assert_eq!(
            events,
            vec![
                Event::StorageOp {
                    op: OpKind::Read,
                    node: 0,
                    bytes: 10
                },
                Event::StorageOp {
                    op: OpKind::Write,
                    node: 1,
                    bytes: 20
                },
                Event::StorageOp {
                    op: OpKind::StageIn,
                    node: 0,
                    bytes: 30
                },
                Event::CacheHit { node: 0 },
                Event::CacheMiss { node: 1 },
            ]
        );
        assert_eq!(report.metrics.counter("storage_stage_ins"), 1);
    }
}
