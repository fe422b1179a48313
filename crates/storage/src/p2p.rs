//! Direct node-to-node file transfers — the paper's future work (§VIII):
//! "In the future we plan to investigate configurations in which files
//! can be transferred directly from one computational node to another."
//!
//! There is no shared file system: every output stays on the node that
//! produced it, and before a job starts the workflow management system
//! pulls each missing input straight from a node that holds a copy
//! (producer or any replica created by earlier pulls). Tasks then read
//! and write the local disk. Compared to S3 staging this removes the
//! central service and its request fees; compared to GlusterFS it removes
//! the shared-namespace lookups — at the price of WMS-managed transfers
//! and replica tracking. A file lives only in its copies, so a dead node
//! loses the files it held the last copy of.

use crate::ledger::{bookkeeping, FileDirectory, OpLedger};
use crate::lru::LruBytes;
use crate::op::{FlowLeg, OpPlan, Stage};
use crate::traits::{FailoverResponse, FileRef, StorageSystem};
use simcore::SimDuration;
use vcluster::{Cluster, NodeId};
use wfobs::OpKind;

/// Tunables for the direct-transfer model.
#[derive(Debug, Clone, Copy)]
pub struct P2pConfig {
    /// Per-transfer setup latency (WMS transfer job + TCP setup).
    pub transfer_latency: SimDuration,
    /// Per-stream transfer throughput, bytes/s.
    pub stream_bps: f64,
    /// Local open latency for task reads/writes.
    pub open_latency: SimDuration,
    /// Fraction of node memory acting as OS page cache.
    pub page_cache_fraction: f64,
}

impl Default for P2pConfig {
    fn default() -> Self {
        P2pConfig {
            transfer_latency: SimDuration::from_nanos(25_000_000), // 25 ms
            stream_bps: 90.0e6,
            open_latency: SimDuration::from_nanos(200_000),
            page_cache_fraction: 0.5,
        }
    }
}

/// The direct node-to-node transfer system.
#[derive(Debug)]
pub struct DirectTransfer {
    cfg: P2pConfig,
    /// Every node currently holding a full copy of each file.
    files: FileDirectory,
    /// Per-node OS page caches.
    page_caches: Vec<LruBytes>,
    ledger: OpLedger,
}

impl DirectTransfer {
    /// Build the system over a provisioned cluster.
    pub fn new(cluster: &Cluster, cfg: P2pConfig) -> Self {
        DirectTransfer {
            cfg,
            files: FileDirectory::default(),
            page_caches: cluster
                .nodes()
                .iter()
                .map(|n| LruBytes::new((n.memory_bytes() as f64 * cfg.page_cache_fraction) as u64))
                .collect(),
            ledger: OpLedger::default(),
        }
    }
}

impl StorageSystem for DirectTransfer {
    bookkeeping!();

    fn name(&self) -> &'static str {
        "direct-transfer"
    }

    fn prestage(&mut self, cluster: &Cluster, files: &[FileRef]) {
        // The WMS distributes workflow inputs round-robin, as with NUFA.
        for (i, (f, _)) in files.iter().enumerate() {
            let owner = cluster.workers()[i % cluster.workers().len()];
            self.files.create(*f, None);
            self.files.add_copy(owner, *f);
        }
    }

    fn plan_stage_in(&mut self, cluster: &Cluster, node: NodeId, inputs: &[FileRef]) -> OpPlan {
        let dst = cluster.node(node);
        let mut plan = OpPlan::empty();
        for &(file, size) in inputs {
            // A file with no copy left was lost after this job became
            // ready: its read fails the job, and the rescue pass reruns.
            let Some(holder) = self.files.holder(file, node) else {
                continue;
            };
            if holder == node {
                self.ledger.hit(node);
                continue;
            }
            self.ledger.miss(node);
            self.ledger.op(OpKind::StageIn, node, size);
            let src = cluster.node(holder);
            // Pull across the network, spill to the local disk.
            let mut path = src.read_path();
            path.extend([src.nic_out, dst.nic_in]);
            plan = plan
                .then(Stage::lat_leg(
                    self.cfg.transfer_latency,
                    FlowLeg::new(size, path).with_cap(self.cfg.stream_bps),
                ))
                .then(Stage::leg(FlowLeg::new(size, dst.write_path())));
            self.files.add_copy(node, file);
            self.page_caches[node.index()].insert(file, size);
        }
        plan
    }

    fn plan_read(&mut self, cluster: &Cluster, node: NodeId, (file, size): FileRef) -> OpPlan {
        self.files.read(file);
        self.ledger.op(OpKind::Read, node, size);
        if self.page_caches[node.index()].touch(file) {
            return OpPlan::one(Stage::latency(self.cfg.open_latency));
        }
        self.page_caches[node.index()].insert(file, size);
        OpPlan::one(Stage::lat_leg(
            self.cfg.open_latency,
            FlowLeg::new(size, cluster.node(node).read_path()),
        ))
    }

    fn plan_write(&mut self, cluster: &Cluster, node: NodeId, (file, size): FileRef) -> OpPlan {
        self.files.create(file, None);
        self.files.add_copy(node, file);
        self.ledger.op(OpKind::Write, node, size);
        self.page_caches[node.index()].insert(file, size);
        OpPlan::one(Stage::lat_leg(
            self.cfg.open_latency,
            FlowLeg::new(size, cluster.node(node).write_path()),
        ))
    }

    fn on_node_failed(&mut self, _cluster: &Cluster, node: NodeId) -> FailoverResponse {
        // The replacement boots with empty ephemeral disks and page cache.
        let cap = self.page_caches[node.index()].capacity();
        self.page_caches[node.index()] = LruBytes::new(cap);
        FailoverResponse::LostFiles(self.files.fail_node(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Sim;
    use vcluster::ClusterSpec;
    use wfdag::FileId;

    fn setup(n: u32) -> (Sim<()>, Cluster, DirectTransfer) {
        let mut sim: Sim<()> = Sim::new();
        let c = Cluster::provision(&mut sim, &ClusterSpec::workers_only(n));
        let p = DirectTransfer::new(&c, P2pConfig::default());
        (sim, c, p)
    }

    #[test]
    fn stage_in_pulls_from_holder_once() {
        let (_, c, mut p) = setup(2);
        let (w0, w1) = (c.workers()[0], c.workers()[1]);
        p.prestage(&c, &[(FileId(0), 1000)]); // lands on w0
        let plan = p.plan_stage_in(&c, w1, &[(FileId(0), 1000)]);
        assert_eq!(plan.stages.len(), 2, "network pull + local spill");
        assert_eq!(p.op_stats().cache_misses, 1);
        // Second stage-in on w1: already replicated there.
        let plan = p.plan_stage_in(&c, w1, &[(FileId(0), 1000)]);
        assert!(plan.is_empty());
        assert_eq!(p.op_stats().cache_misses, 1);
        // And w0 never needed a transfer at all.
        let plan = p.plan_stage_in(&c, w0, &[(FileId(0), 1000)]);
        assert!(plan.is_empty());
    }

    #[test]
    fn outputs_stay_local_and_replicate_on_demand() {
        let (_, c, mut p) = setup(4);
        let w2 = c.workers()[2];
        p.plan_write(&c, w2, (FileId(7), 5000));
        assert_eq!(p.local_bytes(&c, w2, &[(FileId(7), 5000)]), 5000);
        // Another node pulls it directly from w2.
        let plan = p.plan_stage_in(&c, c.workers()[0], &[(FileId(7), 5000)]);
        let pull = &plan.stages[0].legs[0];
        let src = c.node(w2);
        assert!(pull.path.contains(&src.nic_out));
        assert_eq!(pull.rate_cap, Some(90.0e6));
    }

    #[test]
    fn reads_hit_the_page_cache_after_staging() {
        let (_, c, mut p) = setup(2);
        let w1 = c.workers()[1];
        p.prestage(&c, &[(FileId(0), 1000)]);
        p.plan_stage_in(&c, w1, &[(FileId(0), 1000)]);
        let read = p.plan_read(&c, w1, (FileId(0), 1000));
        assert!(read.stages[0].legs.is_empty(), "warm read from RAM");
    }

    #[test]
    fn crash_loses_only_files_whose_last_copy_died() {
        let (_, c, mut p) = setup(2);
        let (w0, w1) = (c.workers()[0], c.workers()[1]);
        p.plan_write(&c, w0, (FileId(0), 100));
        p.plan_write(&c, w0, (FileId(1), 100));
        p.plan_write(&c, w1, (FileId(2), 100));
        p.plan_stage_in(&c, w1, &[(FileId(1), 100)]);
        let resp = p.on_node_failed(&c, w0);
        assert_eq!(resp, FailoverResponse::LostFiles(vec![FileId(0)]));
        // File 1 survives in w1's copy, and stage-ins now pull it from there.
        let refs = [(FileId(0), 100), (FileId(1), 100), (FileId(2), 100)];
        assert_eq!(p.missing_files(&refs), vec![FileId(0)]);
        assert_eq!(p.local_bytes(&c, w0, &refs), 0);
        let plan = p.plan_stage_in(&c, w0, &[(FileId(1), 100)]);
        assert!(plan.stages[0].legs[0].path.contains(&c.node(w1).nic_out));
    }

    #[test]
    fn staging_a_file_with_no_copy_plans_no_transfer() {
        let (_, c, mut p) = setup(2);
        let plan = p.plan_stage_in(&c, c.workers()[0], &[(FileId(9), 10)]);
        assert!(plan.is_empty());
        assert_eq!(p.op_stats().cache_misses, 0);
    }
}
