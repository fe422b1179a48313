//! PVFS striped across the worker nodes (§IV.D).
//!
//! The paper used PVFS 2.6.3 (the 2.8 series crashed on EC2), with file
//! data striped over all nodes and metadata distributed — and notes that
//! this old version lacks the small-file optimizations of later releases,
//! which is why Montage and Broadband (thousands of ~MB files) performed
//! poorly on it.
//!
//! Model: every operation pays a metadata latency plus per-stripe-chunk
//! round trips, and a small file is further limited by a low per-stream
//! throughput (no client-side caching, synchronous strided I/O). Data
//! moves in parallel legs, one per I/O server, so large transfers do enjoy
//! striping bandwidth. The `optimized_small_files` flag models the later
//! releases as an ablation.

use crate::ledger::{bookkeeping, FileDirectory, OpLedger};
use crate::op::{FlowLeg, OpPlan, Stage};
use crate::traits::{FailoverResponse, FileRef, StorageSystem};
use simcore::SimDuration;
use vcluster::{Cluster, NodeId};
use wfobs::OpKind;

/// Tunables for the PVFS model.
#[derive(Debug, Clone, Copy)]
pub struct PvfsConfig {
    /// Per-operation metadata latency (create/lookup on the distributed
    /// metadata servers).
    pub meta_latency: SimDuration,
    /// Stripe size (the PVFS default, 64 KiB).
    pub stripe_size: u64,
    /// Per-stripe-chunk round-trip overhead for synchronous strided I/O.
    pub chunk_rtt: SimDuration,
    /// Files up to this size behave as "small" (§IV.D's problem case).
    pub small_file_threshold: u64,
    /// Effective per-stream throughput for small files, bytes/s.
    pub small_stream_bps: f64,
    /// Effective per-stream throughput for large files, bytes/s.
    pub large_stream_bps: f64,
    /// Model the small-file optimizations of PVFS ≥ 2.8 (ablation).
    pub optimized_small_files: bool,
}

impl Default for PvfsConfig {
    fn default() -> Self {
        PvfsConfig {
            meta_latency: SimDuration::from_nanos(6_000_000), // 6 ms
            stripe_size: 64 * 1024,
            chunk_rtt: SimDuration::from_nanos(250_000), // 0.25 ms
            small_file_threshold: 10 * 1024 * 1024,
            small_stream_bps: 8.0e6,
            large_stream_bps: 38.0e6,
            optimized_small_files: false,
        }
    }
}

impl PvfsConfig {
    /// The configuration modelling PVFS ≥ 2.8 small-file optimizations.
    pub fn optimized() -> Self {
        PvfsConfig {
            meta_latency: SimDuration::from_nanos(2_000_000),
            chunk_rtt: SimDuration::from_nanos(50_000),
            small_stream_bps: 40.0e6,
            optimized_small_files: true,
            ..PvfsConfig::default()
        }
    }
}

/// The PVFS storage system.
#[derive(Debug)]
pub struct Pvfs {
    cfg: PvfsConfig,
    files: FileDirectory,
    ledger: OpLedger,
}

impl Pvfs {
    /// Build a PVFS volume striped over the cluster's workers.
    pub fn new(cfg: PvfsConfig) -> Self {
        Pvfs {
            cfg,
            files: FileDirectory::default(),
            ledger: OpLedger::default(),
        }
    }

    /// Fixed latency of one operation on a file of `size` bytes.
    fn op_latency(&self, size: u64) -> SimDuration {
        let chunks = size.div_ceil(self.cfg.stripe_size).max(1);
        // Strided round trips pipeline poorly in the old release; cap the
        // counted chunks so huge files aren't latency-dominated.
        let counted = chunks.min(64);
        let mut d = self.cfg.meta_latency;
        for _ in 0..counted {
            d += self.cfg.chunk_rtt;
        }
        d
    }

    /// Per-stream throughput limit for a file of `size` bytes.
    fn stream_cap(&self, size: u64) -> f64 {
        if size <= self.cfg.small_file_threshold {
            self.cfg.small_stream_bps
        } else {
            self.cfg.large_stream_bps
        }
    }

    /// Parallel striped legs touching every I/O server.
    fn striped_legs(
        &self,
        cluster: &Cluster,
        client: NodeId,
        size: u64,
        write: bool,
    ) -> Vec<FlowLeg> {
        let workers = cluster.workers();
        let k = workers.len() as u64;
        let per = size / k;
        let rem = size % k;
        let cap = self.stream_cap(size) / k as f64;
        let cnode = cluster.node(client);
        workers
            .iter()
            .enumerate()
            .filter_map(|(i, &srv)| {
                let bytes = per + u64::from((i as u64) < rem);
                if bytes == 0 {
                    return None;
                }
                let snode = cluster.node(srv);
                let mut path;
                if write {
                    path = if srv == client {
                        Vec::new()
                    } else {
                        vec![cnode.nic_out, snode.nic_in]
                    };
                    path.extend(snode.write_path());
                } else {
                    path = snode.read_path();
                    if srv != client {
                        path.extend([snode.nic_out, cnode.nic_in]);
                    }
                }
                Some(FlowLeg::new(bytes, path).with_cap(cap))
            })
            .collect()
    }
}

impl StorageSystem for Pvfs {
    bookkeeping!();

    fn name(&self) -> &'static str {
        if self.cfg.optimized_small_files {
            "pvfs-2.8"
        } else {
            "pvfs"
        }
    }

    fn prestage(&mut self, _cluster: &Cluster, files: &[FileRef]) {
        for (f, _) in files {
            self.files.create(*f, None);
        }
    }

    fn plan_read(&mut self, cluster: &Cluster, node: NodeId, (file, size): FileRef) -> OpPlan {
        self.files.read(file);
        self.ledger.op(OpKind::Read, node, size);
        OpPlan::one(Stage {
            latency: self.op_latency(size),
            legs: self.striped_legs(cluster, node, size, false),
        })
    }

    fn plan_write(&mut self, cluster: &Cluster, node: NodeId, (file, size): FileRef) -> OpPlan {
        self.files.create(file, None);
        self.ledger.op(OpKind::Write, node, size);
        OpPlan::one(Stage {
            latency: self.op_latency(size),
            legs: self.striped_legs(cluster, node, size, true),
        })
    }

    fn on_node_failed(&mut self, cluster: &Cluster, node: NodeId) -> FailoverResponse {
        // Every file is striped over every worker and PVFS (without
        // replication) cannot tolerate losing an I/O server: a stripe of
        // each file lived on the dead node, so everything is lost.
        if !cluster.workers().contains(&node) {
            return FailoverResponse::Unaffected;
        }
        FailoverResponse::LostFiles(self.files.lose_all())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Sim;
    use vcluster::ClusterSpec;
    use wfdag::FileId;

    fn cluster(n: u32) -> (Sim<()>, Cluster) {
        let mut sim: Sim<()> = Sim::new();
        let c = Cluster::provision(&mut sim, &ClusterSpec::workers_only(n));
        (sim, c)
    }

    #[test]
    fn read_stripes_across_all_workers() {
        let (_, c) = cluster(4);
        let mut p = Pvfs::new(PvfsConfig::default());
        p.prestage(&c, &[(FileId(0), 1_000_000)]);
        let plan = p.plan_read(&c, c.workers()[0], (FileId(0), 1_000_000));
        assert_eq!(plan.stages[0].legs.len(), 4);
        let total: u64 = plan.stages[0].legs.iter().map(|l| l.bytes).sum();
        assert_eq!(total, 1_000_000);
        // The self-leg reads the local disk without NICs.
        assert_eq!(plan.stages[0].legs[0].path.len(), 2);
        assert_eq!(plan.stages[0].legs[1].path.len(), 4);
    }

    #[test]
    fn small_files_pay_heavy_latency_and_low_stream_cap() {
        let (_, c) = cluster(2);
        let mut p = Pvfs::new(PvfsConfig::default());
        let size = 1_000_000u64; // ~1 MB: 16 chunks
        let plan = p.plan_write(&c, c.workers()[0], (FileId(0), size));
        let lat = plan.stages[0].latency.as_secs_f64();
        assert!(lat > 0.008, "expected >8 ms, got {lat}");
        for leg in &plan.stages[0].legs {
            assert_eq!(leg.rate_cap, Some(8.0e6 / 2.0));
        }
    }

    #[test]
    fn large_files_get_striping_bandwidth() {
        let (_, c) = cluster(4);
        let mut p = Pvfs::new(PvfsConfig::default());
        let size = 100_000_000u64; // 100 MB
        let plan = p.plan_write(&c, c.workers()[0], (FileId(0), size));
        for leg in &plan.stages[0].legs {
            assert_eq!(leg.rate_cap, Some(38.0e6 / 4.0));
        }
        // Chunk-latency accounting is capped.
        assert!(plan.stages[0].latency.as_secs_f64() < 0.03);
    }

    #[test]
    fn optimized_config_is_faster() {
        let (_, c) = cluster(2);
        let mut old = Pvfs::new(PvfsConfig::default());
        let mut newer = Pvfs::new(PvfsConfig::optimized());
        let size = 1_000_000u64;
        let p_old = old.plan_write(&c, c.workers()[0], (FileId(0), size));
        let p_new = newer.plan_write(&c, c.workers()[0], (FileId(0), size));
        assert!(p_new.stages[0].latency < p_old.stages[0].latency);
        assert!(
            p_new.stages[0].legs[0].rate_cap.unwrap() > p_old.stages[0].legs[0].rate_cap.unwrap()
        );
        assert_eq!(newer.name(), "pvfs-2.8");
    }

    #[test]
    fn tiny_file_has_single_leg() {
        let (_, c) = cluster(4);
        let mut p = Pvfs::new(PvfsConfig::default());
        let plan = p.plan_write(&c, c.workers()[0], (FileId(0), 3));
        // 3 bytes over 4 workers: only 3 non-empty legs.
        assert_eq!(plan.stages[0].legs.len(), 3);
    }

    #[test]
    fn io_server_loss_takes_every_stripe() {
        let (_, c) = cluster(2);
        let mut p = Pvfs::new(PvfsConfig::default());
        p.plan_write(&c, c.workers()[0], (FileId(0), 1000));
        p.plan_write(&c, c.workers()[1], (FileId(1), 1000));
        let resp = p.on_node_failed(&c, c.workers()[1]);
        assert_eq!(
            resp,
            FailoverResponse::LostFiles(vec![FileId(0), FileId(1)])
        );
        assert_eq!(
            p.missing_files(&[(FileId(0), 1000), (FileId(1), 1000)]),
            vec![FileId(0), FileId(1)]
        );
        // Lost files may be re-created.
        p.plan_write(&c, c.workers()[0], (FileId(0), 1000));
    }
}
