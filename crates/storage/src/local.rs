//! The local-disk baseline: all data on one node's RAID 0 array.
//!
//! The paper reports "Local" as a single point in every figure — a single
//! `c1.xlarge` with tasks reading and writing the local ephemeral RAID
//! directly. Writes of fresh data pay the first-write penalty (§III.C).

use crate::ledger::{bookkeeping, FileDirectory, OpLedger};
use crate::lru::LruBytes;
use crate::op::{OpPlan, Stage};
use crate::traits::{FileRef, StorageSystem};
use simcore::SimDuration;
use vcluster::{Cluster, NodeId};
use wfobs::OpKind;

/// Tunables for the local file system.
#[derive(Debug, Clone, Copy)]
pub struct LocalConfig {
    /// Per-operation open/close overhead.
    pub open_latency: SimDuration,
    /// Fraction of node memory acting as page cache: recently written or
    /// read files are served from RAM. Write-once data never goes stale.
    pub page_cache_fraction: f64,
}

impl Default for LocalConfig {
    fn default() -> Self {
        LocalConfig {
            open_latency: SimDuration::from_nanos(200_000), // 0.2 ms
            page_cache_fraction: 0.5,
        }
    }
}

/// Local-disk storage (single worker only).
#[derive(Debug)]
pub struct LocalDisk {
    cfg: LocalConfig,
    files: FileDirectory,
    page_cache: LruBytes,
    ledger: OpLedger,
}

impl LocalDisk {
    /// A local-disk system over the given cluster's single worker.
    pub fn new(cluster: &Cluster, cfg: LocalConfig) -> Self {
        let mem = cluster.node(cluster.workers()[0]).memory_bytes() as f64;
        LocalDisk {
            cfg,
            files: FileDirectory::default(),
            page_cache: LruBytes::new((mem * cfg.page_cache_fraction) as u64),
            ledger: OpLedger::default(),
        }
    }
}

impl StorageSystem for LocalDisk {
    bookkeeping!();

    fn name(&self) -> &'static str {
        "local"
    }

    fn prestage(&mut self, cluster: &Cluster, files: &[FileRef]) {
        for (f, _) in files {
            self.files.create(*f, Some(cluster.workers()[0]));
        }
    }

    fn plan_read(&mut self, cluster: &Cluster, node: NodeId, (file, size): FileRef) -> OpPlan {
        self.files.read(file);
        self.ledger.op(OpKind::Read, node, size);
        if self.page_cache.touch(file) {
            self.ledger.hit(node);
            return OpPlan::one(Stage::latency(self.cfg.open_latency));
        }
        self.ledger.miss(node);
        self.page_cache.insert(file, size);
        let n = cluster.node(node);
        OpPlan::one(Stage::lat_leg(
            self.cfg.open_latency,
            crate::op::FlowLeg {
                bytes: size,
                path: n.local_read(size).path,
                rate_cap: None,
            },
        ))
    }

    fn plan_write(&mut self, cluster: &Cluster, node: NodeId, (file, size): FileRef) -> OpPlan {
        self.files.create(file, Some(node));
        self.ledger.op(OpKind::Write, node, size);
        self.page_cache.insert(file, size);
        let n = cluster.node(node);
        let spec = n.local_write(size);
        OpPlan::one(Stage::lat_leg(
            self.cfg.open_latency,
            crate::op::FlowLeg {
                bytes: size,
                path: spec.path,
                rate_cap: spec.rate_cap,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Sim;
    use vcluster::ClusterSpec;
    use wfdag::FileId;

    fn setup() -> (Sim<()>, Cluster, LocalDisk) {
        let mut sim: Sim<()> = Sim::new();
        let c = Cluster::provision(&mut sim, &ClusterSpec::workers_only(1));
        let local = LocalDisk::new(&c, LocalConfig::default());
        (sim, c, local)
    }

    #[test]
    fn read_uses_disk_read_resource() {
        let (_, c, mut s) = setup();
        s.prestage(&c, &[(FileId(0), 1000)]);
        let plan = s.plan_read(&c, c.workers()[0], (FileId(0), 1000));
        assert_eq!(plan.stages.len(), 1);
        let leg = &plan.stages[0].legs[0];
        assert_eq!(leg.bytes, 1000);
        assert_eq!(leg.path, c.node(c.workers()[0]).read_path());
        assert!(leg.rate_cap.is_none());
    }

    #[test]
    fn write_pays_first_write_penalty() {
        let (_, c, mut s) = setup();
        let plan = s.plan_write(&c, c.workers()[0], (FileId(1), 1000));
        let leg = &plan.stages[0].legs[0];
        let n = c.node(c.workers()[0]);
        assert_eq!(leg.path, n.write_path());
        assert_eq!(leg.path.len(), 3, "spindle + write + penalty resource");
    }

    #[test]
    fn stats_and_local_bytes() {
        let (_, c, mut s) = setup();
        let w = c.workers()[0];
        s.prestage(&c, &[(FileId(0), 500)]);
        s.plan_read(&c, w, (FileId(0), 500));
        s.plan_write(&c, w, (FileId(1), 300));
        let st = s.op_stats();
        assert_eq!((st.reads, st.writes), (1, 1));
        assert_eq!((st.bytes_read, st.bytes_written), (500, 300));
        assert_eq!(
            s.local_bytes(&c, w, &[(FileId(0), 500), (FileId(1), 300), (FileId(2), 9)]),
            800
        );
    }

    #[test]
    fn node_failure_leaves_local_data_intact() {
        // The fault model treats a local-disk "failure" as a service
        // restart: the RAID contents survive, so the default
        // (Unaffected, nothing missing) applies.
        use crate::traits::FailoverResponse;
        let (_, c, mut s) = setup();
        s.plan_write(&c, c.workers()[0], (FileId(0), 1000));
        assert_eq!(
            s.on_node_failed(&c, c.workers()[0]),
            FailoverResponse::Unaffected
        );
        assert!(s.missing_files(&[(FileId(0), 1000)]).is_empty());
    }

    #[test]
    fn rereads_hit_the_page_cache() {
        let (_, c, mut s) = setup();
        let w = c.workers()[0];
        s.plan_write(&c, w, (FileId(0), 1000));
        let plan = s.plan_read(&c, w, (FileId(0), 1000));
        assert!(plan.stages[0].legs.is_empty(), "warm read served from RAM");
        assert_eq!(s.op_stats().cache_hits, 1);
    }

    #[test]
    fn cold_reads_go_to_disk_and_warm_the_cache() {
        let (_, c, mut s) = setup();
        let w = c.workers()[0];
        s.prestage(&c, &[(FileId(0), 1000)]);
        let cold = s.plan_read(&c, w, (FileId(0), 1000));
        assert_eq!(cold.stages[0].legs.len(), 1);
        let warm = s.plan_read(&c, w, (FileId(0), 1000));
        assert!(warm.stages[0].legs.is_empty());
    }
}
