//! XtreemFS, a file system designed for wide-area deployments (§IV).
//!
//! The paper tried it, found workflows took more than twice as long as on
//! any other system, and terminated the experiments without completing
//! them. We model its WAN-oriented object storage: every operation crosses
//! a metadata/OSD service with wide-area-grade latencies and a modest
//! shared service capacity — enough to reproduce the ">2× slower"
//! observation (experiment E8), not a calibrated model of the system.

use crate::ledger::{bookkeeping, FileDirectory, OpLedger};
use crate::op::{FlowLeg, OpPlan, Stage};
use crate::traits::{FileRef, StorageSystem};
use simcore::{Model, ResourceId, Sim, SimDuration};
use vcluster::{Cluster, NodeId};
use wfobs::OpKind;

/// Tunables for the XtreemFS model.
#[derive(Debug, Clone, Copy)]
pub struct XtreemFsConfig {
    /// Per-operation latency (MRC metadata + OSD round trips over a
    /// WAN-tuned stack).
    pub op_latency: SimDuration,
    /// Aggregate OSD service bandwidth per direction, bytes/s.
    pub service_bps: f64,
    /// Per-stream throughput, bytes/s.
    pub stream_bps: f64,
}

impl Default for XtreemFsConfig {
    fn default() -> Self {
        XtreemFsConfig {
            op_latency: SimDuration::from_nanos(160_000_000), // 160 ms
            service_bps: 10.0e6,
            stream_bps: 6.0e6,
        }
    }
}

/// The XtreemFS storage system.
#[derive(Debug)]
pub struct XtreemFs {
    cfg: XtreemFsConfig,
    service_in: ResourceId,
    service_out: ResourceId,
    files: FileDirectory,
    ledger: OpLedger,
}

impl XtreemFs {
    /// Build the service, registering its shared resources.
    pub fn new<W: Model>(sim: &mut Sim<W>, cfg: XtreemFsConfig) -> Self {
        XtreemFs {
            cfg,
            service_in: sim.add_resource("xtreemfs.in", cfg.service_bps),
            service_out: sim.add_resource("xtreemfs.out", cfg.service_bps),
            files: FileDirectory::default(),
            ledger: OpLedger::default(),
        }
    }
}

impl StorageSystem for XtreemFs {
    bookkeeping!();

    fn name(&self) -> &'static str {
        "xtreemfs"
    }

    fn prestage(&mut self, _cluster: &Cluster, files: &[FileRef]) {
        for (f, _) in files {
            self.files.create(*f, None);
        }
    }

    fn plan_read(&mut self, cluster: &Cluster, node: NodeId, (file, size): FileRef) -> OpPlan {
        self.files.read(file);
        self.ledger.op(OpKind::Read, node, size);
        let n = cluster.node(node);
        OpPlan::one(Stage::lat_leg(
            self.cfg.op_latency,
            FlowLeg::new(size, vec![self.service_out, n.nic_in]).with_cap(self.cfg.stream_bps),
        ))
    }

    fn plan_write(&mut self, cluster: &Cluster, node: NodeId, (file, size): FileRef) -> OpPlan {
        self.files.create(file, None);
        self.ledger.op(OpKind::Write, node, size);
        let n = cluster.node(node);
        OpPlan::one(Stage::lat_leg(
            self.cfg.op_latency,
            FlowLeg::new(size, vec![n.nic_out, self.service_in]).with_cap(self.cfg.stream_bps),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcluster::ClusterSpec;
    use wfdag::FileId;

    #[test]
    fn ops_pay_wan_latency_and_low_caps() {
        let mut sim: Sim<()> = Sim::new();
        let c = Cluster::provision(&mut sim, &ClusterSpec::workers_only(1));
        let mut x = XtreemFs::new(&mut sim, XtreemFsConfig::default());
        let plan = x.plan_write(&c, c.workers()[0], (FileId(0), 1_000_000));
        assert!(plan.stages[0].latency.as_secs_f64() > 0.1);
        assert_eq!(plan.stages[0].legs[0].rate_cap, Some(6.0e6));
        let rplan = x.plan_read(&c, c.workers()[0], (FileId(0), 1_000_000));
        assert!(rplan.stages[0].latency.as_secs_f64() > 0.1);
    }
}
