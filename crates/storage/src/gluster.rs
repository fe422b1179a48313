//! GlusterFS in the two configurations of §IV.C.
//!
//! In both modes every node is client *and* server: each worker exports
//! its local RAID volume and the volumes are merged into one namespace.
//!
//! * **NUFA** (non-uniform file access): writes to new files always go to
//!   the local disk; reads go wherever the file was created. Because the
//!   workloads are write-once, *every* write is local — which gives the
//!   pipeline-structured Broadband transformations excellent locality
//!   (§V.C).
//! * **distribute**: files are placed by hashing the file name, spreading
//!   reads and writes uniformly across the virtual cluster.

use crate::ledger::{bookkeeping, FileDirectory, OpLedger};
use crate::op::{FlowLeg, OpPlan, Stage};
use crate::traits::{FailoverResponse, FileRef, StorageSystem};
use simcore::SimDuration;
use vcluster::{net_path, Cluster, NodeId};
use wfdag::FileId;
use wfobs::OpKind;

/// GlusterFS translator configuration (§IV.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlusterMode {
    /// Writes local, reads from the creating node.
    Nufa,
    /// Placement by file-name hash.
    Distribute,
}

/// Tunables for the GlusterFS model.
#[derive(Debug, Clone, Copy)]
pub struct GlusterConfig {
    /// Mode: NUFA or distribute.
    pub mode: GlusterMode,
    /// Per-operation lookup latency for data on the local volume.
    pub local_latency: SimDuration,
    /// Per-operation lookup latency when another node's volume is
    /// involved (FUSE + one network round trip).
    pub remote_latency: SimDuration,
    /// Per-stream throughput through the FUSE client for local-volume
    /// data, bytes/s.
    pub local_stream_bps: f64,
    /// Per-stream throughput for remote-volume data, bytes/s — GlusterFS
    /// over 1 GbE was well known to deliver well below line rate per
    /// stream.
    pub remote_stream_bps: f64,
}

impl GlusterConfig {
    /// Defaults for the given mode.
    pub fn new(mode: GlusterMode) -> Self {
        GlusterConfig {
            mode,
            local_latency: SimDuration::from_nanos(600_000), // 0.6 ms
            remote_latency: SimDuration::from_nanos(1_800_000), // 1.8 ms
            local_stream_bps: 160.0e6,
            remote_stream_bps: 30.0e6,
        }
    }
}

/// The GlusterFS storage system.
#[derive(Debug)]
pub struct Gluster {
    cfg: GlusterConfig,
    /// Each file's owning brick.
    files: FileDirectory,
    ledger: OpLedger,
}

impl Gluster {
    /// Build a GlusterFS volume over the cluster's workers.
    pub fn new(cfg: GlusterConfig) -> Self {
        Gluster {
            cfg,
            files: FileDirectory::default(),
            ledger: OpLedger::default(),
        }
    }

    /// The distribute-mode hash: deterministic placement by file id (the
    /// real system hashes the file name; ids are stable name surrogates).
    fn hash_owner(&self, file: FileId, cluster: &Cluster) -> NodeId {
        let workers = cluster.workers();
        // Fibonacci hashing for a uniform spread of consecutive ids.
        let h = (u64::from(file.0)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        workers[(h >> 32) as usize % workers.len()]
    }
}

impl StorageSystem for Gluster {
    bookkeeping!();

    fn name(&self) -> &'static str {
        match self.cfg.mode {
            GlusterMode::Nufa => "glusterfs-nufa",
            GlusterMode::Distribute => "glusterfs-distribute",
        }
    }

    fn prestage(&mut self, cluster: &Cluster, files: &[FileRef]) {
        // Input data is copied into the merged namespace before the run:
        // distribute hashes it; NUFA lands it round-robin (the staging
        // client writes from each node in turn).
        for (i, (f, _)) in files.iter().enumerate() {
            let owner = match self.cfg.mode {
                GlusterMode::Distribute => self.hash_owner(*f, cluster),
                GlusterMode::Nufa => {
                    let workers = cluster.workers();
                    workers[i % workers.len()]
                }
            };
            self.files.create(*f, Some(owner));
        }
    }

    fn plan_read(&mut self, cluster: &Cluster, node: NodeId, (file, size): FileRef) -> OpPlan {
        let owner = self.files.read(file).expect("every file has an owner");
        self.ledger.op(OpKind::Read, node, size);
        let owner_node = cluster.node(owner);
        let reader = cluster.node(node);
        if owner == node {
            OpPlan::one(Stage::lat_leg(
                self.cfg.local_latency,
                FlowLeg::new(size, owner_node.read_path()).with_cap(self.cfg.local_stream_bps),
            ))
        } else {
            let mut path = owner_node.read_path();
            path.extend(net_path(owner_node, reader));
            OpPlan::one(Stage::lat_leg(
                self.cfg.remote_latency,
                FlowLeg::new(size, path).with_cap(self.cfg.remote_stream_bps),
            ))
        }
    }

    fn plan_write(&mut self, cluster: &Cluster, node: NodeId, (file, size): FileRef) -> OpPlan {
        let owner = match self.cfg.mode {
            GlusterMode::Nufa => node,
            GlusterMode::Distribute => self.hash_owner(file, cluster),
        };
        self.files.create(file, Some(owner));
        self.ledger.op(OpKind::Write, node, size);
        let owner_node = cluster.node(owner);
        let writer = cluster.node(node);
        if owner == node {
            OpPlan::one(Stage::lat_leg(
                self.cfg.local_latency,
                FlowLeg::new(size, owner_node.write_path()).with_cap(self.cfg.local_stream_bps),
            ))
        } else {
            let mut path = net_path(writer, owner_node);
            path.extend(owner_node.write_path());
            OpPlan::one(Stage::lat_leg(
                self.cfg.remote_latency,
                FlowLeg::new(size, path).with_cap(self.cfg.remote_stream_bps),
            ))
        }
    }

    fn on_node_failed(&mut self, _cluster: &Cluster, node: NodeId) -> FailoverResponse {
        // The brick restarts with an empty volume: every file whose only
        // copy lived there is gone (neither mode replicates).
        FailoverResponse::LostFiles(self.files.fail_node(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Sim;
    use vcluster::ClusterSpec;

    fn cluster(n: u32) -> (Sim<()>, Cluster) {
        let mut sim: Sim<()> = Sim::new();
        let c = Cluster::provision(&mut sim, &ClusterSpec::workers_only(n));
        (sim, c)
    }

    #[test]
    fn nufa_writes_are_always_local() {
        let (_, c) = cluster(4);
        let mut g = Gluster::new(GlusterConfig::new(GlusterMode::Nufa));
        for (i, &w) in c.workers().iter().enumerate() {
            let plan = g.plan_write(&c, w, (FileId(i as u32), 1000));
            let node = c.node(w);
            assert_eq!(plan.stages[0].legs[0].path, node.write_path(), "worker {i}");
            assert_eq!(plan.stages[0].legs[0].path.len(), 3);
        }
    }

    #[test]
    fn nufa_read_from_creator_is_local() {
        let (_, c) = cluster(2);
        let mut g = Gluster::new(GlusterConfig::new(GlusterMode::Nufa));
        let w0 = c.workers()[0];
        let w1 = c.workers()[1];
        g.plan_write(&c, w0, (FileId(0), 1000));
        let local = g.plan_read(&c, w0, (FileId(0), 1000));
        assert_eq!(local.stages[0].legs[0].path.len(), 2, "spindle + read");
        let remote = g.plan_read(&c, w1, (FileId(0), 1000));
        assert_eq!(
            remote.stages[0].legs[0].path.len(),
            4,
            "disk (2) + two NICs"
        );
    }

    #[test]
    fn distribute_spreads_files_roughly_uniformly() {
        let (_, c) = cluster(4);
        let mut g = Gluster::new(GlusterConfig::new(GlusterMode::Distribute));
        let mut counts = std::collections::HashMap::new();
        for i in 0..1000u32 {
            let plan = g.plan_write(&c, c.workers()[0], (FileId(i), 10));
            assert!(!plan.stages.is_empty());
            let owner = g.files.read(FileId(i)).expect("owned");
            *counts.entry(owner).or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 4, "all nodes used");
        for (&node, &n) in &counts {
            assert!((150..=350).contains(&n), "node {node:?} got {n}/1000");
        }
    }

    #[test]
    fn distribute_remote_write_crosses_network() {
        let (_, c) = cluster(4);
        let mut g = Gluster::new(GlusterConfig::new(GlusterMode::Distribute));
        // Find a file hashed to a different node than workers[0].
        let w0 = c.workers()[0];
        let fid = (0..100u32)
            .map(FileId)
            .find(|f| g.hash_owner(*f, &c) != w0)
            .expect("some file hashes elsewhere");
        let plan = g.plan_write(&c, w0, (fid, 1000));
        assert!(
            plan.stages[0].legs[0].path.len() >= 5,
            "NICs + remote write path"
        );
    }

    #[test]
    fn prestage_nufa_round_robins() {
        let (_, c) = cluster(2);
        let mut g = Gluster::new(GlusterConfig::new(GlusterMode::Nufa));
        g.prestage(&c, &[(FileId(0), 1), (FileId(1), 1), (FileId(2), 1)]);
        assert_eq!(g.files.read(FileId(0)), Some(c.workers()[0]));
        assert_eq!(g.files.read(FileId(1)), Some(c.workers()[1]));
        assert_eq!(g.files.read(FileId(2)), Some(c.workers()[0]));
    }

    #[test]
    fn local_bytes_reflects_placement() {
        let (_, c) = cluster(2);
        let mut g = Gluster::new(GlusterConfig::new(GlusterMode::Nufa));
        let w0 = c.workers()[0];
        g.plan_write(&c, w0, (FileId(0), 500));
        assert_eq!(g.local_bytes(&c, w0, &[(FileId(0), 500)]), 500);
        assert_eq!(g.local_bytes(&c, c.workers()[1], &[(FileId(0), 500)]), 0);
    }

    #[test]
    fn dead_brick_loses_exactly_its_files() {
        let (_, c) = cluster(2);
        let mut g = Gluster::new(GlusterConfig::new(GlusterMode::Nufa));
        let (w0, w1) = (c.workers()[0], c.workers()[1]);
        g.plan_write(&c, w0, (FileId(0), 100));
        g.plan_write(&c, w1, (FileId(1), 100));
        g.plan_write(&c, w0, (FileId(2), 100));
        let resp = g.on_node_failed(&c, w0);
        assert_eq!(
            resp,
            FailoverResponse::LostFiles(vec![FileId(0), FileId(2)])
        );
        let refs = [(FileId(0), 100), (FileId(1), 100), (FileId(2), 100)];
        assert_eq!(g.missing_files(&refs), vec![FileId(0), FileId(2)]);
        // The surviving brick still serves its file.
        let plan = g.plan_read(&c, w1, (FileId(1), 100));
        assert!(!plan.stages.is_empty());
    }

    #[test]
    fn lost_files_may_be_rewritten() {
        let (_, c) = cluster(2);
        let mut g = Gluster::new(GlusterConfig::new(GlusterMode::Distribute));
        let w0 = c.workers()[0];
        g.plan_write(&c, w0, (FileId(0), 100));
        let owner = g.files.read(FileId(0)).expect("owned");
        g.on_node_failed(&c, owner);
        // Re-creating the lost file is not a write-once violation.
        g.plan_write(&c, w0, (FileId(0), 100));
        assert!(g.missing_files(&[(FileId(0), 100)]).is_empty());
    }
}
