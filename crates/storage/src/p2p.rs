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
//! and replica tracking.

use crate::ledger::OpLedger;
use crate::lru::LruBytes;
use crate::op::{FlowLeg, OpPlan, Stage};
use crate::traits::{FileRef, StorageOpStats, StorageSystem};
use simcore::SimDuration;
use std::collections::{HashMap, HashSet};
use vcluster::{Cluster, NodeId};
use wfdag::FileId;
use wfobs::{ObsHandle, OpKind};

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
    replicas: HashMap<FileId, HashSet<NodeId>>,
    /// Per-node OS page caches.
    page_caches: Vec<LruBytes>,
    ledger: OpLedger,
    transfers: u64,
}

impl DirectTransfer {
    /// Build the system over a provisioned cluster.
    pub fn new(cluster: &Cluster, cfg: P2pConfig) -> Self {
        DirectTransfer {
            cfg,
            replicas: HashMap::new(),
            page_caches: cluster
                .nodes()
                .iter()
                .map(|n| LruBytes::new((n.memory_bytes() as f64 * cfg.page_cache_fraction) as u64))
                .collect(),
            ledger: OpLedger::default(),
            transfers: 0,
        }
    }

    /// Number of node-to-node transfers performed.
    pub fn transfer_count(&self) -> u64 {
        self.transfers
    }

    fn holder_for(&self, file: FileId, wanting: NodeId) -> Option<NodeId> {
        let holders = self.replicas.get(&file)?;
        if holders.contains(&wanting) {
            return Some(wanting);
        }
        // Deterministic choice: the lowest-id holder (a real system would
        // load-balance; determinism matters more here).
        holders.iter().min().copied()
    }
}

impl StorageSystem for DirectTransfer {
    fn name(&self) -> &'static str {
        "direct-transfer"
    }

    fn attach_obs(&mut self, obs: ObsHandle) {
        self.ledger.attach(obs);
    }

    fn prestage(&mut self, cluster: &Cluster, files: &[FileRef]) {
        // The WMS distributes workflow inputs round-robin, as with NUFA.
        for (i, (f, _)) in files.iter().enumerate() {
            let owner = cluster.workers()[i % cluster.workers().len()];
            self.replicas.entry(*f).or_default().insert(owner);
        }
    }

    fn plan_stage_in(&mut self, cluster: &Cluster, node: NodeId, inputs: &[FileRef]) -> OpPlan {
        let dst = cluster.node(node);
        let mut plan = OpPlan::empty();
        for &(file, size) in inputs {
            let holder = self
                .holder_for(file, node)
                .unwrap_or_else(|| panic!("stage-in of a file with no replica: {file:?}"));
            if holder == node {
                self.ledger.hit(node);
                continue;
            }
            self.ledger.miss(node);
            self.ledger.op(OpKind::StageIn, node, size);
            self.transfers += 1;
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
            self.replicas.entry(file).or_default().insert(node);
            self.page_caches[node.index()].insert(file, size);
        }
        plan
    }

    fn plan_read(&mut self, cluster: &Cluster, node: NodeId, (file, size): FileRef) -> OpPlan {
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
        let holders = self.replicas.entry(file).or_default();
        assert!(holders.is_empty(), "write-once violated for {file:?}");
        holders.insert(node);
        self.ledger.op(OpKind::Write, node, size);
        self.page_caches[node.index()].insert(file, size);
        OpPlan::one(Stage::lat_leg(
            self.cfg.open_latency,
            FlowLeg::new(size, cluster.node(node).write_path()),
        ))
    }

    fn local_bytes(&self, _cluster: &Cluster, node: NodeId, files: &[FileRef]) -> u64 {
        files
            .iter()
            .filter(|(f, _)| self.replicas.get(f).is_some_and(|h| h.contains(&node)))
            .map(|(_, s)| *s)
            .sum()
    }

    fn op_stats(&self) -> StorageOpStats {
        self.ledger.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Sim;
    use vcluster::ClusterSpec;

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
        assert_eq!(p.transfer_count(), 1);
        // Second stage-in on w1: already replicated there.
        let plan = p.plan_stage_in(&c, w1, &[(FileId(0), 1000)]);
        assert!(plan.is_empty());
        assert_eq!(p.transfer_count(), 1);
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
    #[should_panic(expected = "write-once")]
    fn double_write_panics() {
        let (_, c, mut p) = setup(2);
        p.plan_write(&c, c.workers()[0], (FileId(0), 10));
        p.plan_write(&c, c.workers()[1], (FileId(0), 10));
    }

    #[test]
    #[should_panic(expected = "no replica")]
    fn staging_unknown_file_panics() {
        let (_, c, mut p) = setup(2);
        p.plan_stage_in(&c, c.workers()[0], &[(FileId(9), 10)]);
    }
}
